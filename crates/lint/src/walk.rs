//! Workspace file discovery: every `.rs` file and every `Cargo.toml`
//! under the root, in a deterministic (sorted) order, skipping build
//! output, VCS metadata, and configured exclude prefixes.

use std::path::{Path, PathBuf};

use crate::config::Config;

/// Directory names never worth descending into.
const SKIP_DIRS: &[&str] = &["target", ".git", "results"];

/// A discovered file with its root-relative forward-slash path.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute (or root-joined) path for reading.
    pub path: PathBuf,
    /// Root-relative path with `/` separators — what rules and config
    /// prefixes match against.
    pub rel: String,
}

/// Walks `root` collecting `(rust_files, manifests)`, both sorted by
/// relative path so findings and NDJSON output are reproducible.
///
/// # Errors
///
/// Returns the first directory-read error encountered.
pub fn collect(
    root: &Path,
    config: &Config,
) -> std::io::Result<(Vec<SourceFile>, Vec<SourceFile>)> {
    let mut rust = Vec::new();
    let mut manifests = Vec::new();
    walk_dir(root, root, config, &mut rust, &mut manifests)?;
    rust.sort_by(|a, b| a.rel.cmp(&b.rel));
    manifests.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok((rust, manifests))
}

fn walk_dir(
    root: &Path,
    dir: &Path,
    config: &Config,
    rust: &mut Vec<SourceFile>,
    manifests: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = relative(root, &path);
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            if config.is_excluded(&rel) {
                continue;
            }
            walk_dir(root, &path, config, rust, manifests)?;
        } else if !config.is_excluded(&rel) {
            if name == "Cargo.toml" {
                manifests.push(SourceFile { path, rel });
            } else if name.ends_with(".rs") {
                rust.push(SourceFile { path, rel });
            }
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut out = String::new();
    for component in rel.components() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&component.as_os_str().to_string_lossy());
    }
    out
}
