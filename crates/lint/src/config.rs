//! `lint.toml` parsing — the checked-in workspace lint configuration.
//!
//! The format is a deliberately small TOML subset (the workspace is
//! zero-dependency, so there is no full TOML parser to lean on):
//!
//! ```toml
//! [lint]
//! exclude = [
//!     "crates/lint/tests/fixtures", # deliberate violations
//! ]
//!
//! [allow.L008]
//! reason = "experiment bins reproduce the paper's strict flow"
//! paths = ["crates/bench"]
//! ```
//!
//! Sections are `[lint]` (global excludes) and one `[allow.L00x]` per
//! rule; every allow section **must** carry a non-empty `reason`
//! string — a suppression without a written justification is a config
//! error, mirroring the inline `// lint:allow(L00x): reason` syntax.

use std::fmt;

/// One per-rule path allowance from an `[allow.L00x]` section.
#[derive(Clone, Debug)]
pub struct Allow {
    /// Rule id, e.g. `L004`.
    pub rule: String,
    /// Root-relative path prefixes the rule is allowed under.
    pub paths: Vec<String>,
    /// Written justification (required).
    pub reason: String,
}

/// One L012 panic-freedom root from the `[roots]` section: the function
/// from which no panic site may be transitively reachable.
#[derive(Clone, Debug)]
pub struct RootSpec {
    /// Optional root-relative file path the root must live in; `None`
    /// matches the function name in any file.
    pub file: Option<String>,
    /// Function name.
    pub name: String,
}

impl RootSpec {
    /// Parses `"crates/daemon/src/server.rs::handle"` or `"handle"`.
    #[must_use]
    pub fn parse(spec: &str) -> RootSpec {
        match spec.split_once("::") {
            Some((file, name)) => RootSpec {
                file: Some(file.to_owned()),
                name: name.to_owned(),
            },
            None => RootSpec {
                file: None,
                name: spec.to_owned(),
            },
        }
    }

    /// Does the function `name` defined in `file` match this root?
    #[must_use]
    pub fn matches(&self, file: &str, name: &str) -> bool {
        self.name == name && self.file.as_deref().is_none_or(|f| f == file)
    }
}

/// Parsed `lint.toml`.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Root-relative path prefixes excluded from scanning entirely
    /// (fixture trees with deliberate violations live here).
    pub exclude: Vec<String>,
    /// Per-rule path allowances.
    pub allows: Vec<Allow>,
    /// L012 panic-freedom roots (`[roots] panic_freedom = [...]`).
    /// L012 is inert when this list is empty.
    pub panic_roots: Vec<RootSpec>,
}

/// Error produced for a malformed `lint.toml`.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ConfigError {
    /// 1-based line of the offending construct (0 for file-level).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Finds the path prefix allowance covering `path` for `rule`, if
    /// any, returning its reason.
    #[must_use]
    pub fn allow_reason(&self, rule: &str, path: &str) -> Option<&str> {
        self.allows
            .iter()
            .filter(|a| a.rule == rule)
            .find(|a| a.paths.iter().any(|p| path_has_prefix(path, p)))
            .map(|a| a.reason.as_str())
    }

    /// True when `path` falls under a global exclude prefix.
    #[must_use]
    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|p| path_has_prefix(path, p))
    }

    /// Parses the `lint.toml` text.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on unknown sections/keys, malformed
    /// values, or an `[allow.*]` section missing a non-empty `reason`.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        let mut section = Section::None;
        let mut pending: Option<(Allow, usize)> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((index, raw)) = lines.next() {
            let line_no = index + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let header = header.strip_suffix(']').ok_or_else(|| ConfigError {
                    line: line_no,
                    message: format!("unterminated section header `{raw}`"),
                })?;
                finish_allow(&mut pending, &mut config)?;
                section = match header.trim() {
                    "lint" => Section::Lint,
                    "roots" => Section::Roots,
                    other => match other.strip_prefix("allow.") {
                        Some(rule) if is_rule_id(rule) => {
                            pending = Some((
                                Allow {
                                    rule: rule.to_owned(),
                                    paths: Vec::new(),
                                    reason: String::new(),
                                },
                                line_no,
                            ));
                            Section::Allow
                        }
                        _ => {
                            return Err(ConfigError {
                                line: line_no,
                                message: format!(
                                    "unknown section `[{other}]` (expected [lint] or [allow.L0xx])"
                                ),
                            })
                        }
                    },
                };
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ConfigError {
                line: line_no,
                message: format!("expected `key = value`, got `{raw}`"),
            })?;
            let key = key.trim();
            let mut value = value.trim().to_owned();
            // Multi-line arrays: keep consuming lines until the `]`.
            if value.starts_with('[') && !value.contains(']') {
                for (_, continuation) in lines.by_ref() {
                    let continuation = strip_comment(continuation);
                    value.push(' ');
                    value.push_str(continuation.trim());
                    if continuation.contains(']') {
                        break;
                    }
                }
            }
            match (&section, key) {
                (Section::Lint, "exclude") => {
                    config.exclude = parse_string_array(&value, line_no)?;
                }
                (Section::Roots, "panic_freedom") => {
                    for spec in parse_string_array(&value, line_no)? {
                        if spec.trim().is_empty() || spec.ends_with("::") {
                            return Err(ConfigError {
                                line: line_no,
                                message: format!(
                                    "bad root spec `{spec}` (expected `path/to/file.rs::fn_name` \
                                     or a bare function name)"
                                ),
                            });
                        }
                        config.panic_roots.push(RootSpec::parse(&spec));
                    }
                }
                (Section::Allow, "paths") => {
                    let allow = &mut pending.as_mut().expect("in allow section").0;
                    allow.paths = parse_string_array(&value, line_no)?;
                }
                (Section::Allow, "reason") => {
                    let allow = &mut pending.as_mut().expect("in allow section").0;
                    allow.reason = parse_string(&value, line_no)?;
                }
                (Section::None, _) => {
                    return Err(ConfigError {
                        line: line_no,
                        message: format!("key `{key}` outside any section"),
                    })
                }
                (_, other) => {
                    return Err(ConfigError {
                        line: line_no,
                        message: format!("unknown key `{other}`"),
                    })
                }
            }
        }
        finish_allow(&mut pending, &mut config)?;
        Ok(config)
    }
}

enum Section {
    None,
    Lint,
    Allow,
    Roots,
}

/// True when `path` equals `prefix` or sits underneath it as a
/// directory prefix (component-wise, so `crates/li` does not cover
/// `crates/lint/...`).
fn path_has_prefix(path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    path == prefix
        || path
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
}

fn is_rule_id(text: &str) -> bool {
    text.len() == 4 && text.starts_with('L') && text[1..].chars().all(|c| c.is_ascii_digit())
}

fn finish_allow(
    pending: &mut Option<(Allow, usize)>,
    config: &mut Config,
) -> Result<(), ConfigError> {
    if let Some((allow, line)) = pending.take() {
        if allow.reason.trim().is_empty() {
            return Err(ConfigError {
                line,
                message: format!(
                    "[allow.{}] needs a non-empty `reason = \"…\"` — every suppression \
                     must say why",
                    allow.rule
                ),
            });
        }
        if allow.paths.is_empty() {
            return Err(ConfigError {
                line,
                message: format!("[allow.{}] needs a `paths = [\"…\"]` list", allow.rule),
            });
        }
        config.allows.push(allow);
    }
    Ok(())
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, line: usize) -> Result<String, ConfigError> {
    let value = value.trim();
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_owned)
        .ok_or_else(|| ConfigError {
            line,
            message: format!("expected a double-quoted string, got `{value}`"),
        })
}

fn parse_string_array(value: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    let value = value.trim();
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| ConfigError {
            line,
            message: format!("expected `[\"…\", …]`, got `{value}`"),
        })?;
    let mut items = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        items.push(parse_string(item, line)?);
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let config = Config::parse(
            r#"
# workspace lint configuration
[lint]
exclude = [
    "crates/lint/tests/fixtures", # deliberate violations
]

[allow.L008]
reason = "strict flow is the measured quantity"
paths = ["crates/bench", "examples/demo.rs"]
"#,
        )
        .unwrap();
        assert_eq!(config.exclude, vec!["crates/lint/tests/fixtures"]);
        assert_eq!(config.allows.len(), 1);
        assert!(config.is_excluded("crates/lint/tests/fixtures/deny/x.rs"));
        assert!(!config.is_excluded("crates/lint/src/lib.rs"));
        assert_eq!(
            config.allow_reason("L008", "crates/bench/src/bin/figure3.rs"),
            Some("strict flow is the measured quantity")
        );
        assert_eq!(config.allow_reason("L004", "crates/bench/src/lib.rs"), None);
        assert_eq!(config.allow_reason("L008", "crates/benchmark/x.rs"), None);
    }

    #[test]
    fn parses_panic_freedom_roots() {
        let config = Config::parse(
            "[roots]\npanic_freedom = [\n    \"crates/daemon/src/server.rs::handle_connection\",\n    \"install\",\n]\n",
        )
        .unwrap();
        assert_eq!(config.panic_roots.len(), 2);
        assert!(config.panic_roots[0].matches("crates/daemon/src/server.rs", "handle_connection"));
        assert!(!config.panic_roots[0].matches("crates/daemon/src/cache.rs", "handle_connection"));
        assert!(config.panic_roots[1].matches("anywhere.rs", "install"));
        assert!(Config::parse("[roots]\npanic_freedom = [\"bad::\"]\n").is_err());
        assert!(Config::parse("[roots]\nbogus = [\"x\"]\n").is_err());
    }

    #[test]
    fn allow_requires_reason_and_paths() {
        let err = Config::parse("[allow.L004]\npaths = [\"a\"]\n").unwrap_err();
        assert!(err.message.contains("reason"), "{err}");
        let err = Config::parse("[allow.L004]\nreason = \"why\"\n").unwrap_err();
        assert!(err.message.contains("paths"), "{err}");
    }

    #[test]
    fn rejects_unknown_sections_and_keys() {
        assert!(Config::parse("[deny.L001]\n").is_err());
        assert!(Config::parse("[allow.X001]\n").is_err());
        assert!(Config::parse("[lint]\nbogus = 3\n").is_err());
        assert!(Config::parse("orphan = 1\n").is_err());
    }

    #[test]
    fn comments_and_strings_interact() {
        let config = Config::parse("[lint]\nexclude = [\"a#b\"] # trailing\n").unwrap();
        assert_eq!(config.exclude, vec!["a#b"]);
    }
}
