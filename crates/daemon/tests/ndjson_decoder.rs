//! Differential and generated-input tests for the NDJSON request
//! decoder.
//!
//! `DiagnoseRequest::parse_line` decodes a line in one pass. The
//! `oracle` module below is the earlier decoder, kept verbatim as a
//! test-only reference: it parses the line into a `scan_obs::json`
//! DOM and then extracts the fields. Generated lines — valid requests
//! run through structural, numeric and byte-level mutations — must
//! decode without panicking, to the oracle's request when it accepts,
//! and to the oracle's error (`code`, `http`, `id` and message) when
//! it refuses. The one allowed divergence is the `signatures`
//! precision fix: the DOM rounds every entry through `f64`, so lines
//! whose `signatures` hold a number at or above 2^53 may differ.

use scan_daemon::protocol::DiagnoseRequest;
use scan_rng::testkit::{Gen, Runner};

mod oracle {
    use scan_daemon::protocol::{
        scheme_from_label, DiagnoseRequest, ErrorBody, Evidence, RobustParams,
    };
    use scan_obs::json::Value;

    const DEFAULT_GROUPS: u16 = 16;
    const DEFAULT_PARTITIONS: usize = 16;
    const DEFAULT_PATTERNS: usize = 64;
    const DEFAULT_TOP: usize = 32;

    fn canonical_scheme(label: &str) -> Result<&'static str, String> {
        scheme_from_label(label)?;
        Ok(match label {
            "two-step" => "two-step",
            "random" => "random",
            "interval" => "interval",
            _ => "fixed",
        })
    }

    fn get_u64(value: &Value, key: &str) -> Result<Option<u64>, String> {
        match value.get(key) {
            None => Ok(None),
            Some(v) => {
                let n = v
                    .as_f64()
                    .ok_or_else(|| format!("`{key}` must be a number"))?;
                if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
                    return Err(format!("`{key}` must be a non-negative integer"));
                }
                Ok(Some(n as u64))
            }
        }
    }

    fn get_f64(value: &Value, key: &str) -> Result<Option<f64>, String> {
        match value.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| format!("`{key}` must be a number")),
        }
    }

    pub fn parse_line(line: &str) -> Result<DiagnoseRequest, (Option<String>, ErrorBody)> {
        let value = scan_obs::json::parse(line)
            .map_err(|e| (None, ErrorBody::bad_request(format!("malformed JSON: {e}"))))?;
        let id = value.get("id").and_then(|v| v.as_str()).map(str::to_owned);
        parse_value(&value, id.clone()).map_err(|e| (id, e))
    }

    fn parse_value(value: &Value, id: Option<String>) -> Result<DiagnoseRequest, ErrorBody> {
        let bad = |m: String| ErrorBody::bad_request(m);
        let id = id.ok_or_else(|| bad("`id` (string) is required".to_owned()))?;
        let circuit = value
            .get("circuit")
            .and_then(|v| v.as_str())
            .ok_or_else(|| bad("`circuit` (string) is required".to_owned()))?
            .to_owned();
        let groups = match get_u64(value, "groups").map_err(&bad)? {
            None => DEFAULT_GROUPS,
            Some(g) if (1..=u64::from(u16::MAX)).contains(&g) => g as u16,
            Some(g) => return Err(bad(format!("`groups` out of range: {g}"))),
        };
        let partitions = get_u64(value, "partitions")
            .map_err(&bad)?
            .map_or(DEFAULT_PARTITIONS, |p| p as usize);
        if partitions == 0 || partitions > 4096 {
            return Err(bad(format!("`partitions` out of range: {partitions}")));
        }
        let patterns = get_u64(value, "patterns")
            .map_err(&bad)?
            .map_or(DEFAULT_PATTERNS, |p| p as usize);
        if patterns == 0 || patterns > 1 << 20 {
            return Err(bad(format!("`patterns` out of range: {patterns}")));
        }
        let scheme_label = value
            .get("scheme")
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| bad("`scheme` must be a string".to_owned()))
            })
            .transpose()?
            .unwrap_or_else(|| "two-step".to_owned());
        let scheme = canonical_scheme(&scheme_label).map_err(&bad)?;
        let evidence = parse_evidence(value, groups, partitions)?;
        let deadline_ms = get_u64(value, "deadline_ms").map_err(&bad)?;
        let robust = parse_robust(value)?;
        let top = get_u64(value, "top")
            .map_err(&bad)?
            .map_or(DEFAULT_TOP, |t| (t as usize).clamp(1, 4096));
        Ok(DiagnoseRequest {
            id,
            circuit,
            groups,
            partitions,
            patterns,
            scheme,
            evidence,
            deadline_ms,
            robust,
            top,
        })
    }

    fn parse_evidence(
        value: &Value,
        groups: u16,
        partitions: usize,
    ) -> Result<Evidence, ErrorBody> {
        let bad = |m: String| ErrorBody::bad_request(m);
        match (value.get("signatures"), value.get("failing")) {
            (Some(_), Some(_)) => Err(bad(
                "exactly one of `signatures` or `failing` is required, not both".to_owned(),
            )),
            (None, None) => Err(bad(
                "exactly one of `signatures` or `failing` is required".to_owned()
            )),
            (Some(sig), None) => {
                let rows = sig
                    .as_array()
                    .ok_or_else(|| bad("`signatures` must be an array".to_owned()))?;
                if rows.len() != partitions {
                    return Err(bad(format!(
                        "`signatures` has {} rows; expected one per partition ({partitions})",
                        rows.len()
                    )));
                }
                let mut grid = Vec::with_capacity(rows.len());
                for (p, row) in rows.iter().enumerate() {
                    let cells = row
                        .as_array()
                        .ok_or_else(|| bad(format!("`signatures[{p}]` must be an array")))?;
                    if cells.len() != usize::from(groups) {
                        return Err(bad(format!(
                            "`signatures[{p}]` has {} entries; expected one per group ({groups})",
                            cells.len()
                        )));
                    }
                    let mut out = Vec::with_capacity(cells.len());
                    for (g, cell) in cells.iter().enumerate() {
                        let n = cell.as_f64().ok_or_else(|| {
                            bad(format!("`signatures[{p}][{g}]` must be a number"))
                        })?;
                        if n < 0.0 || n.fract() != 0.0 {
                            return Err(bad(format!(
                                "`signatures[{p}][{g}]` must be a non-negative integer"
                            )));
                        }
                        out.push(n as u64);
                    }
                    grid.push(out);
                }
                Ok(Evidence::Signatures(grid))
            }
            (None, Some(fail)) => {
                let rows = fail
                    .as_array()
                    .ok_or_else(|| bad("`failing` must be an array".to_owned()))?;
                if rows.len() != partitions {
                    return Err(bad(format!(
                        "`failing` has {} rows; expected one per partition ({partitions})",
                        rows.len()
                    )));
                }
                let mut grid = Vec::with_capacity(rows.len());
                for (p, row) in rows.iter().enumerate() {
                    let indices = row
                        .as_array()
                        .ok_or_else(|| bad(format!("`failing[{p}]` must be an array")))?;
                    let mut out = Vec::with_capacity(indices.len());
                    for (i, idx) in indices.iter().enumerate() {
                        let n = idx
                            .as_f64()
                            .ok_or_else(|| bad(format!("`failing[{p}][{i}]` must be a number")))?;
                        let g = n as usize;
                        if n < 0.0 || n.fract() != 0.0 || g >= usize::from(groups) {
                            return Err(bad(format!(
                                "`failing[{p}][{i}]` = {n} is not a group index < {groups}"
                            )));
                        }
                        out.push(g);
                    }
                    grid.push(out);
                }
                Ok(Evidence::Failing(grid))
            }
        }
    }

    fn parse_robust(value: &Value) -> Result<Option<RobustParams>, ErrorBody> {
        let bad = |m: String| ErrorBody::bad_request(m);
        let Some(robust) = value.get("robust") else {
            return Ok(None);
        };
        if robust.as_object().is_none() {
            return Err(bad("`robust` must be an object".to_owned()));
        }
        let flip = get_f64(robust, "flip").map_err(&bad)?.unwrap_or(0.0);
        let dropout = get_f64(robust, "dropout").map_err(&bad)?.unwrap_or(0.0);
        for (key, rate) in [("flip", flip), ("dropout", dropout)] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(bad(format!("`robust.{key}` must be in [0,1], got {rate}")));
            }
        }
        let seed = get_u64(robust, "seed").map_err(&bad)?.unwrap_or(1);
        let retries = get_u64(robust, "retries")
            .map_err(&bad)?
            .map_or(2, |r| (r as usize).min(8));
        let votes = get_u64(robust, "votes")
            .map_err(&bad)?
            .map_or(3, |v| (v as usize).clamp(1, 15));
        Ok(Some(RobustParams {
            flip,
            dropout,
            seed,
            retries,
            votes,
        }))
    }
}

/// Number spellings the two decoders must agree on (or both refuse).
const NUMBER_FORMS: &[&str] = &[
    "0",
    "1",
    "3",
    "16.0",
    "1e1",
    "1E1",
    "1.6e1",
    "2e0",
    "-0",
    "-0.0",
    "007",
    "00",
    "-5",
    "2.5",
    "0.5",
    "1e-2",
    "1e400",
    "-1e400",
    "1.",
    "-",
    "1e",
    "1e+",
    "--1",
    "+1",
    ".5",
    "12345678901234567890",
    "98765432109876543210",
    "9007199254740992",
    "9007199254740991",
    "4096",
    "4097",
    "65535",
    "65536",
    "1048576",
];

/// Values of other JSON types, for wrong-type and unknown members.
const OTHER_VALUES: &[&str] = &[
    "null",
    "true",
    "false",
    "\"x\"",
    "\"\"",
    "{}",
    "[]",
    "[[]]",
    "[[1]]",
    "[1,[2,[3]]]",
    r#"{"a":[1,{"b":"c"}]}"#,
    r#""é\n\t\"""#,
    r#"{"flip":0.1}"#,
    "[\"a\"]",
];

/// Pieces an `id` is assembled from, escapes included.
const ID_PIECES: &[&str] = &[
    "r",
    "7",
    "-",
    "b0",
    "é",
    "→",
    "😀",
    "\\n",
    "\\t",
    "\\\"",
    "\\\\",
    "\\/",
    "\\u0041",
    "\\u00e9",
    "\\ud83d\\ude00",
    "\\b",
    "\\f",
    "\\r",
    " ",
];

/// Rarely-valid pieces: bad escapes, lone surrogates, raw controls.
const BAD_ID_PIECES: &[&str] = &["\\x", "\\ud800", "\\udc00", "\\u12", "\u{1}", "\\"];

/// Bytes a flip or insertion draws from: JSON punctuation, digits and
/// number syntax, whitespace, escapes, a control byte, non-ASCII.
const MUTATION_BYTES: &[u8] = b"\"\\{}[],:0159-+.eE tnfx\t\n\x01\xc3\xa9";

fn number(g: &mut Gen, label: &str, valid: u64) -> String {
    if g.rng().gen_bool(0.02) {
        g.pick(label, NUMBER_FORMS).to_owned()
    } else {
        valid.to_string()
    }
}

fn value_or_mutant(g: &mut Gen, label: &str, valid: String) -> String {
    match g.rng().gen_index(40) {
        0 => g.pick(label, OTHER_VALUES).to_owned(),
        1 => g.pick(label, NUMBER_FORMS).to_owned(),
        _ => valid,
    }
}

fn id_text(g: &mut Gen) -> String {
    let n = g.usize("id pieces", 0, 5);
    let mut id = String::new();
    for _ in 0..n {
        let piece = if g.rng().gen_bool(0.05) {
            g.pick("bad id piece", BAD_ID_PIECES)
        } else {
            g.pick("id piece", ID_PIECES)
        };
        id.push_str(piece);
    }
    format!("\"{id}\"")
}

fn grid(rows: &[Vec<String>]) -> String {
    let rows: Vec<String> = rows.iter().map(|r| format!("[{}]", r.join(","))).collect();
    format!("[{}]", rows.join(","))
}

/// A valid request, member by member, with occasional mutants mixed in.
fn members(g: &mut Gen) -> Vec<(String, String)> {
    let mut m: Vec<(String, String)> = Vec::new();
    let explicit_shape = g.rng().gen_bool(0.9);
    let (groups, partitions) = if explicit_shape {
        (g.usize("groups", 1, 6), g.usize("partitions", 1, 5))
    } else {
        (16, 16)
    };
    if g.rng().gen_bool(0.97) {
        m.push(("id".into(), id_text(g)));
    }
    if g.rng().gen_bool(0.97) {
        let circuit = g.pick("circuit", &["s27", "s953", "s38417", "c\\u0031"]);
        let circuit = value_or_mutant(g, "circuit mutant", format!("\"{circuit}\""));
        m.push(("circuit".into(), circuit));
    }
    if explicit_shape {
        let text = number(g, "groups form", groups as u64);
        m.push(("groups".into(), value_or_mutant(g, "groups mutant", text)));
        let text = number(g, "partitions form", partitions as u64);
        m.push((
            "partitions".into(),
            value_or_mutant(g, "partitions mutant", text),
        ));
    }
    if g.rng().gen_bool(0.7) {
        let patterns = g.u64("patterns", 1, 128);
        let text = number(g, "patterns form", patterns);
        m.push((
            "patterns".into(),
            value_or_mutant(g, "patterns mutant", text),
        ));
    }
    if g.rng().gen_bool(0.5) {
        let scheme = g.pick(
            "scheme",
            &["two-step", "random", "interval", "fixed", "zigzag"],
        );
        let scheme = value_or_mutant(g, "scheme mutant", format!("\"{scheme}\""));
        m.push(("scheme".into(), scheme));
    }
    let signatures = g.bool("signatures");
    let rows: Vec<Vec<String>> = (0..partitions)
        .map(|p| {
            if signatures {
                (0..groups)
                    .map(|_| {
                        let big = g.rng().gen_bool(0.01);
                        let v = if big {
                            g.u64("signature", 0, u64::MAX)
                        } else {
                            g.u64("signature", 0, 1000)
                        };
                        let text = number(g, "signature form", v);
                        value_or_mutant(g, "signature mutant", text)
                    })
                    .collect()
            } else {
                let set = g.set(&format!("failing[{p}]"), 0, groups, |r| r.gen_index(groups));
                set.into_iter()
                    .map(|i| {
                        let text = number(g, "index form", i as u64);
                        value_or_mutant(g, "failing mutant", text)
                    })
                    .collect()
            }
        })
        .collect();
    let key = if signatures { "signatures" } else { "failing" };
    m.push((key.into(), value_or_mutant(g, "grid mutant", grid(&rows))));
    if g.rng().gen_bool(0.3) {
        let deadline = g.u64("deadline_ms", 1, 5000);
        let text = number(g, "deadline form", deadline);
        m.push((
            "deadline_ms".into(),
            value_or_mutant(g, "deadline mutant", text),
        ));
    }
    if g.rng().gen_bool(0.5) {
        let top = g.u64("top", 0, 5000);
        let text = number(g, "top form", top);
        m.push(("top".into(), value_or_mutant(g, "top mutant", text)));
    }
    if g.rng().gen_bool(0.4) {
        let mut robust = Vec::new();
        for key in ["flip", "dropout", "seed", "retries", "votes", "extra"] {
            if g.rng().gen_bool(0.6) {
                let valid = match key {
                    "flip" | "dropout" => {
                        format!("{}", g.pick("rate", &[0.0, 0.02, 0.5, 1.0, 1.5]))
                    }
                    "extra" => g.pick("extra", OTHER_VALUES).to_owned(),
                    _ => {
                        let v = g.u64("robust int", 0, 20);
                        number(g, "robust form", v)
                    }
                };
                robust.push(format!(
                    "\"{key}\":{}",
                    value_or_mutant(g, "robust mutant", valid)
                ));
            }
        }
        let block = format!("{{{}}}", robust.join(","));
        m.push((
            "robust".into(),
            value_or_mutant(g, "robust block mutant", block),
        ));
    }
    m
}

fn nested(g: &mut Gen) -> String {
    let depth = g.usize("nesting", 60, 67);
    if g.bool("nest objects") {
        format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth))
    } else {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }
}

/// Reorders, repeats, renames, drops and adds members.
fn restructure(g: &mut Gen, m: &mut Vec<(String, String)>) {
    if g.rng().gen_bool(0.3) {
        g.rng().shuffle(m);
    }
    if !m.is_empty() && g.rng().gen_bool(0.15) {
        let i = g.rng().gen_index(m.len());
        let key = m[i].0.clone();
        let value = match g.rng().gen_index(3) {
            0 => g.pick("duplicate value", OTHER_VALUES).to_owned(),
            1 => g.pick("duplicate number", NUMBER_FORMS).to_owned(),
            _ => m[g.rng().gen_index(m.len())].1.clone(),
        };
        let at = g.rng().gen_index(m.len() + 1);
        m.insert(at, (key, value));
    }
    if !m.is_empty() && g.rng().gen_bool(0.1) {
        let i = g.rng().gen_index(m.len());
        m.remove(i);
    }
    if !m.is_empty() && g.rng().gen_bool(0.1) {
        // An escaped spelling of a known key is the same key.
        let i = g.rng().gen_index(m.len());
        let key = &m[i].0;
        if let Some(first) = key.chars().next() {
            m[i].0 = format!("\\u{:04x}{}", first as u32, &key[first.len_utf8()..]);
        }
    }
    if g.rng().gen_bool(0.2) {
        let key = g.pick(
            "unknown key",
            &["extra", "Id", "robust2", "signature", "", "\\u00e9"],
        );
        let value = if g.rng().gen_bool(0.3) {
            nested(g)
        } else {
            g.pick("unknown value", OTHER_VALUES).to_owned()
        };
        let at = g.rng().gen_index(m.len() + 1);
        m.insert(at, (key.to_owned(), value));
    }
}

fn render(g: &mut Gen, m: &[(String, String)]) -> String {
    let spaced = g.rng().gen_bool(0.2);
    let (sep, colon) = if spaced { (" ,\t", " : ") } else { (",", ":") };
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{k}\"{colon}{v}"))
        .collect();
    format!("{{{}}}", body.join(sep))
}

/// Flips, inserts, deletes or truncates at the byte level.
fn mangle(g: &mut Gen, line: String) -> String {
    let mut bytes = line.into_bytes();
    let edits = g.usize("byte edits", 0, 3);
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        let at = g.rng().gen_index(bytes.len());
        match g.rng().gen_index(4) {
            0 => bytes[at] = g.pick("flip byte", MUTATION_BYTES),
            1 => bytes.insert(at, g.pick("insert byte", MUTATION_BYTES)),
            2 => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    // The daemon decodes request bodies with `from_utf8_lossy`.
    String::from_utf8_lossy(&bytes).into_owned()
}

fn generated_line(g: &mut Gen) -> String {
    if g.rng().gen_bool(0.03) {
        return g
            .pick(
                "other document",
                &["[1]", "5", "\"x\"", "null", "[{\"id\":\"a\"}]", ""],
            )
            .to_owned();
    }
    let mut m = members(g);
    restructure(g, &mut m);
    let line = render(g, &m);
    if g.rng().gen_bool(0.2) {
        mangle(g, line)
    } else {
        line
    }
}

/// The DOM rounds every number through `f64`: a `signatures` entry at
/// or above 2^53 is where the exact decoder may legitimately differ.
fn signatures_lose_precision(line: &str) -> bool {
    let Ok(value) = scan_obs::json::parse(line) else {
        return false;
    };
    let Some(rows) = value.get("signatures").and_then(|v| v.as_array()) else {
        return false;
    };
    rows.iter()
        .filter_map(|row| row.as_array())
        .flatten()
        .filter_map(scan_obs::json::Value::as_f64)
        .any(|n| n >= 9_007_199_254_740_992.0)
}

fn assert_agrees(line: &str) {
    let got = DiagnoseRequest::parse_line(line);
    let want = oracle::parse_line(line);
    if signatures_lose_precision(line) {
        return;
    }
    match (got, want) {
        (Ok(got), Ok(want)) => assert_eq!(got, want, "line: {line}"),
        (Err((got_id, got)), Err((want_id, want))) => {
            assert_eq!(got_id, want_id, "id for line: {line}");
            assert_eq!((got.code, got.http), (want.code, want.http), "line: {line}");
            assert_eq!(got.message, want.message, "line: {line}");
        }
        (got, want) => {
            panic!("decoders disagree on {line}\n  decoder: {got:?}\n  oracle:  {want:?}")
        }
    }
}

#[test]
fn decoder_agrees_with_the_dom_oracle_on_generated_lines() {
    Runner::new(4000).run("ndjson decoder vs DOM oracle", |g| {
        let line = generated_line(g);
        assert_agrees(&line);
    });
}

#[test]
fn decoder_agrees_on_every_prefix_of_a_valid_line() {
    let line = r#"{"id":"pé\n","circuit":"s27","groups":2,"partitions":2,"patterns":16,"scheme":"random","signatures":[[5,0],[0,9]],"deadline_ms":500,"robust":{"flip":0.02,"seed":7,"x":[{}]},"top":4}"#;
    for end in 0..=line.len() {
        if let Some(prefix) = line.get(..end) {
            assert_agrees(prefix);
        }
    }
}

#[test]
fn number_forms_follow_the_scalar_rule() {
    for form in NUMBER_FORMS {
        for key in ["groups", "partitions", "patterns", "deadline_ms", "top"] {
            let line = format!(
                r#"{{"id":"n","circuit":"s27","groups":1,"partitions":1,"failing":[[0]],"{key}":{form}}}"#
            );
            assert_agrees(&line);
        }
        let line = format!(
            r#"{{"id":"n","circuit":"s27","groups":1,"partitions":1,"failing":[[{form}]]}}"#
        );
        assert_agrees(&line);
    }
}

#[test]
fn nesting_is_bounded_like_the_dom() {
    for depth in 60..70 {
        let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let line = format!(r#"{{"id":"d","circuit":"s27","failing":[],"x":{deep}}}"#);
        assert_agrees(&line);
        let line = format!(r#"{{"id":"d","robust":{{"x":{deep}}}}}"#);
        assert_agrees(&line);
    }
}
