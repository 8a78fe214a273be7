//! The NDJSON diagnosis protocol.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! {"id":"r1","circuit":"s953","groups":8,"partitions":6,"patterns":64,
//!  "scheme":"two-step","signatures":[[..],[..]],"deadline_ms":500,
//!  "robust":{"flip":0.02,"seed":7},"top":16}
//! ```
//!
//! Evidence is either `"signatures"` (`u64` MISR error signature per
//! group per partition; nonzero = failed) or `"failing"` (failing
//! group indices per partition) — exactly one of the two.
//!
//! Integer rules. A `signatures` entry written as plain digits is
//! exact up to `u64::MAX`; a larger one is a `bad-request` naming
//! `signatures[p][g]`. Every other integer field, and a `signatures`
//! entry written with a fraction or exponent (`16.0`, `1e1`), must be
//! integral, non-negative and at most 2^53 (`-0` reads as `0`).
//!
//! [`DiagnoseRequest::parse_line`] decodes a line in one pass with
//! [`scan_obs::json::Reader`], straight into the typed request: no
//! intermediate JSON tree. Unknown keys are skipped (nesting bounded as
//! in [`scan_obs::json`]), a repeated key keeps its last value, and
//! fields are checked only once the whole line has been read, so a
//! semantic error still echoes the line's `id`. Responses:
//!
//! ```text
//! {"id":"r1","status":"ok","mode":"full","confidence":"exact",
//!  "candidates":[[17,1.0]],"cells":125,"elapsed_us":412,"trace":"…"}
//! {"id":"r2","status":"error","error":{"code":"contradictory","http":422,
//!  "message":"…"}}
//! ```
//!
//! Every error variant the engine can raise maps to one stable
//! `(code, http)` pair — pinned by round-trip tests so daemon clients
//! can match on codes without fear of drift.

use std::borrow::Cow;
use std::fmt::Write as _;

use scan_diagnosis::{
    CampaignError, DiagnoseError, DiagnosisStatus, NoiseConfig, RobustPolicy, SessionOutcome,
};

use scan_obs::http::HttpError;
use scan_obs::json::{escape, escape_into, JsonError, Number, Reader};

/// The stable wire shape of a failure: a machine-matchable `code`, the
/// HTTP status the same condition maps to when it is request-level,
/// and a human message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorBody {
    /// Stable machine-readable code (kebab-case, never renamed).
    pub code: &'static str,
    /// The HTTP status this condition carries at the request level.
    pub http: u16,
    /// Human-readable detail; not stable, not for matching.
    pub message: String,
}

impl ErrorBody {
    /// A malformed-request error (bad JSON, bad field, bad shape).
    #[must_use]
    pub fn bad_request(message: String) -> ErrorBody {
        ErrorBody {
            code: "bad-request",
            http: 400,
            message,
        }
    }

    /// Maps a [`DiagnoseError`] to its pinned wire shape.
    #[must_use]
    pub fn from_diagnose_error(e: &DiagnoseError) -> ErrorBody {
        let (code, http) = match e {
            DiagnoseError::AllSessionsPassed => ("all-passed", 422),
            DiagnoseError::ContradictoryHistory { .. } => ("contradictory", 422),
            DiagnoseError::Cancelled { .. } => ("cancelled", 504),
            // `DiagnoseError` is non_exhaustive: future variants must
            // not silently reuse an existing code.
            _ => ("internal", 500),
        };
        ErrorBody {
            code,
            http,
            message: e.to_string(),
        }
    }

    /// Maps a [`CampaignError`] to its pinned wire shape.
    #[must_use]
    pub fn from_campaign_error(e: &CampaignError) -> ErrorBody {
        let (code, http) = match e {
            CampaignError::Patterns(_) => ("bad-patterns", 400),
            CampaignError::Plan(_) => ("bad-plan", 400),
            CampaignError::NoSuchCore { .. } => ("no-such-core", 404),
            CampaignError::NoDetectedFaults => ("no-detected-faults", 422),
            CampaignError::NotSocCampaign => ("not-soc-campaign", 400),
            CampaignError::Noise(_) => ("bad-noise", 400),
            // `CampaignError` is non_exhaustive: future variants must
            // not silently reuse an existing code.
            _ => ("internal", 500),
        };
        ErrorBody {
            code,
            http,
            message: e.to_string(),
        }
    }

    /// Maps a checked [`DiagnosisStatus`] to a wire shape; `None` for
    /// [`DiagnosisStatus::Consistent`] (which is not an error).
    #[must_use]
    pub fn from_status(status: &DiagnosisStatus) -> Option<ErrorBody> {
        match status {
            DiagnosisStatus::Consistent => None,
            DiagnosisStatus::AllPassed => Some(ErrorBody {
                code: "all-passed",
                http: 422,
                message: "every BIST session passed; nothing to diagnose".to_owned(),
            }),
            DiagnosisStatus::Contradictory { partition } => Some(ErrorBody {
                code: "contradictory",
                http: 422,
                message: format!("session history contradicts itself at partition {partition}"),
            }),
        }
    }

    /// Maps an [`HttpError`] to a wire shape (connection-level codes).
    #[must_use]
    pub fn from_http_error(e: &HttpError) -> ErrorBody {
        ErrorBody {
            code: "http",
            http: e.status().unwrap_or(400),
            message: e.message().to_owned(),
        }
    }

    /// Renders the response line: `{"id":…,"status":"error","error":{…}}`.
    #[must_use]
    pub fn render(&self, id: Option<&str>) -> String {
        let id = id.map_or_else(|| "null".to_owned(), escape);
        format!(
            "{{\"id\":{id},\"status\":\"error\",\"error\":{{\"code\":\"{}\",\"http\":{},\"message\":{}}}}}",
            self.code,
            self.http,
            escape(&self.message)
        )
    }
}

/// Failing-session evidence, in one of the two accepted encodings.
#[derive(Clone, Debug, PartialEq)]
pub enum Evidence {
    /// `signatures[partition][group]` — MISR error signatures, zero
    /// for passing sessions.
    Signatures(Vec<Vec<u64>>),
    /// `failing[partition]` — indices of the failing groups.
    Failing(Vec<Vec<usize>>),
}

/// Requested fault-tolerance replay parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RobustParams {
    /// Verdict flip probability.
    pub flip: f64,
    /// Session dropout probability.
    pub dropout: f64,
    /// Noise stream seed.
    pub seed: u64,
    /// Maximum retry rounds.
    pub retries: usize,
    /// Ballots per retried session.
    pub votes: usize,
}

impl RobustParams {
    /// The engine-facing noise configuration.
    #[must_use]
    pub fn noise_config(&self) -> NoiseConfig {
        NoiseConfig {
            seed: self.seed,
            flip_rate: self.flip,
            dropout_rate: self.dropout,
            ..NoiseConfig::noiseless(self.seed)
        }
    }

    /// The engine-facing retry policy.
    #[must_use]
    pub fn policy(&self) -> RobustPolicy {
        RobustPolicy {
            max_retry_rounds: self.retries,
            votes: self.votes,
        }
    }
}

/// One parsed NDJSON diagnosis request.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagnoseRequest {
    /// Client-chosen correlation id, echoed in the response line.
    pub id: String,
    /// Benchmark circuit name (e.g. `s953`).
    pub circuit: String,
    /// Session groups per partition.
    pub groups: u16,
    /// Number of partitions.
    pub partitions: usize,
    /// BIST patterns per session.
    pub patterns: usize,
    /// Partitioning scheme label (`two-step|random|interval|fixed`).
    pub scheme: &'static str,
    /// The failing-session evidence.
    pub evidence: Evidence,
    /// Per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Robust-replay parameters, when requested.
    pub robust: Option<RobustParams>,
    /// Maximum candidates to return.
    pub top: usize,
}

const DEFAULT_GROUPS: u16 = 16;
const DEFAULT_PARTITIONS: usize = 16;
const DEFAULT_PATTERNS: usize = 64;
const DEFAULT_TOP: usize = 32;

/// The engine scheme for a protocol label.
///
/// # Errors
///
/// Rejects unknown labels with the accepted set.
pub fn scheme_from_label(label: &str) -> Result<scan_bist::Scheme, String> {
    match label {
        "two-step" => Ok(scan_bist::Scheme::TWO_STEP_DEFAULT),
        "random" => Ok(scan_bist::Scheme::RandomSelection),
        "interval" => Ok(scan_bist::Scheme::IntervalBased),
        "fixed" => Ok(scan_bist::Scheme::FixedInterval),
        other => Err(format!(
            "unknown scheme `{other}` (expected two-step|random|interval|fixed)"
        )),
    }
}

fn canonical_scheme(label: &str) -> Result<&'static str, String> {
    // Validate against the engine mapping, then intern the label so
    // the request can carry a `&'static str` cache-key component.
    scheme_from_label(label)?;
    Ok(match label {
        "two-step" => "two-step",
        "random" => "random",
        "interval" => "interval",
        _ => "fixed",
    })
}

/// The largest integer a scalar field accepts, 2^53: the top of the
/// range in which every integer has an exact JSON double.
const MAX_SCALAR: f64 = 9_007_199_254_740_992.0;

/// Depth of the request object's members (the line itself is depth 0).
const MEMBER_DEPTH: usize = 1;

fn starts_number(r: &Reader<'_>) -> bool {
    matches!(r.peek(), Some(b'-' | b'0'..=b'9'))
}

/// `Some` for a string member, `None` (value skipped) for any other.
fn read_string<'a>(r: &mut Reader<'a>, depth: usize) -> Result<Option<Cow<'a, str>>, JsonError> {
    if r.peek() == Some(b'"') {
        r.string().map(Some)
    } else {
        r.skip_value(depth).map(|()| None)
    }
}

/// A scalar member as scanned; checked only once the line is read.
#[derive(Clone, Copy, Debug, Default)]
enum Scalar {
    #[default]
    Absent,
    NotNumber,
    Number(Number),
}

impl Scalar {
    fn read(r: &mut Reader<'_>, depth: usize) -> Result<Scalar, JsonError> {
        if starts_number(r) {
            r.number().map(Scalar::Number)
        } else {
            r.skip_value(depth).map(|()| Scalar::NotNumber)
        }
    }

    /// A non-negative integer no larger than [`MAX_SCALAR`], in any
    /// number form (`16`, `16.0`, `1.6e1`), compared as a JSON double.
    fn integer(self, key: &str) -> Result<Option<u64>, String> {
        let n = match self {
            Scalar::Absent => return Ok(None),
            Scalar::NotNumber => return Err(format!("`{key}` must be a number")),
            Scalar::Number(n) => n.as_f64(),
        };
        if n < 0.0 || n.fract() != 0.0 || n > MAX_SCALAR {
            return Err(format!("`{key}` must be a non-negative integer"));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Ok(Some(n as u64))
    }

    fn real(self, key: &str) -> Result<Option<f64>, String> {
        match self {
            Scalar::Absent => Ok(None),
            Scalar::NotNumber => Err(format!("`{key}` must be a number")),
            Scalar::Number(n) => Ok(Some(n.as_f64())),
        }
    }
}

/// A number in fraction or exponent form that names an integer
/// within the scalar range (`-0` counts as `0`).
fn integral(x: f64) -> Option<u64> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    (x >= 0.0 && x.fract() == 0.0 && x <= MAX_SCALAR).then_some(x as u64)
}

/// A `signatures` entry: a plain integer is exact up to `u64::MAX`.
fn signature_entry(n: Number) -> Option<u64> {
    match n {
        Number::Int(v) => Some(v),
        Number::Real(x) => integral(x),
    }
}

/// A `failing` entry that could index a group (`< 2^16`), before the
/// `< groups` check.
fn failing_entry(n: Number) -> Option<usize> {
    integral(n.as_f64())
        .and_then(|g| u16::try_from(g).ok())
        .map(usize::from)
}

/// The first bad row or entry of an evidence grid, in text order.
#[derive(Clone, Copy, Debug)]
struct Fault {
    row: usize,
    kind: FaultKind,
}

#[derive(Clone, Copy, Debug)]
enum FaultKind {
    RowNotArray,
    NotNumber(usize),
    Invalid(usize, Number),
}

/// An evidence grid as scanned. Entry checks that need no other field
/// run during the scan; the first failure is kept and reported only
/// after the row-count and row-length checks that precede it.
#[derive(Debug)]
struct Grid<T> {
    /// `None` when the member is not an array.
    rows: Option<Vec<Vec<T>>>,
    fault: Option<Fault>,
}

impl<T: Default> Grid<T> {
    /// Reads the member at `depth`; `hint` is the `(rows, columns)`
    /// capacity to allocate up front.
    fn read(
        r: &mut Reader<'_>,
        depth: usize,
        hint: (usize, usize),
        entry: impl Fn(Number) -> Option<T>,
    ) -> Result<Grid<T>, JsonError> {
        if r.peek() != Some(b'[') {
            r.skip_value(depth)?;
            return Ok(Grid {
                rows: None,
                fault: None,
            });
        }
        let (hint_rows, hint_cols) = hint;
        let mut rows = Vec::with_capacity(hint_rows);
        let mut fault = None;
        r.array(depth, |r| {
            let p = rows.len();
            if r.peek() != Some(b'[') {
                r.skip_value(depth + 1)?;
                fault.get_or_insert(Fault {
                    row: p,
                    kind: FaultKind::RowNotArray,
                });
                rows.push(Vec::new());
                return Ok(());
            }
            let mut row = Vec::with_capacity(if p < hint_rows { hint_cols } else { 0 });
            r.array(depth + 1, |r| {
                let i = row.len();
                let kind = if starts_number(r) {
                    let n = r.number()?;
                    match entry(n) {
                        Some(value) => {
                            row.push(value);
                            return Ok(());
                        }
                        None => FaultKind::Invalid(i, n),
                    }
                } else {
                    r.skip_value(depth + 2)?;
                    FaultKind::NotNumber(i)
                };
                fault.get_or_insert(Fault { row: p, kind });
                row.push(T::default());
                Ok(())
            })?;
            rows.push(row);
            Ok(())
        })?;
        Ok(Grid {
            rows: Some(rows),
            fault,
        })
    }

    /// The shape checks shared by both encodings: an array with one row
    /// per partition.
    fn rows(self, name: &str, partitions: usize) -> Result<(Vec<Vec<T>>, Option<Fault>), String> {
        let rows = self
            .rows
            .ok_or_else(|| format!("`{name}` must be an array"))?;
        if rows.len() != partitions {
            return Err(format!(
                "`{name}` has {} rows; expected one per partition ({partitions})",
                rows.len()
            ));
        }
        Ok((rows, self.fault))
    }
}

/// `robust` members as scanned.
#[derive(Clone, Copy, Debug, Default)]
struct RobustFields {
    flip: Scalar,
    dropout: Scalar,
    seed: Scalar,
    retries: Scalar,
    votes: Scalar,
}

impl RobustFields {
    /// `None` (value skipped) when the member is not an object.
    fn read(r: &mut Reader<'_>, depth: usize) -> Result<Option<RobustFields>, JsonError> {
        if r.peek() != Some(b'{') {
            return r.skip_value(depth).map(|()| None);
        }
        let mut f = RobustFields::default();
        r.object(depth, |r, key| {
            let slot = match key.as_ref() {
                "flip" => &mut f.flip,
                "dropout" => &mut f.dropout,
                "seed" => &mut f.seed,
                "retries" => &mut f.retries,
                "votes" => &mut f.votes,
                _ => return r.skip_value(depth + 1),
            };
            *slot = Scalar::read(r, depth + 1)?;
            Ok(())
        })?;
        Ok(Some(f))
    }

    fn check(self) -> Result<RobustParams, String> {
        let flip = self.flip.real("flip")?.unwrap_or(0.0);
        let dropout = self.dropout.real("dropout")?.unwrap_or(0.0);
        for (key, rate) in [("flip", flip), ("dropout", dropout)] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("`robust.{key}` must be in [0,1], got {rate}"));
            }
        }
        #[allow(clippy::cast_possible_truncation)]
        Ok(RobustParams {
            flip,
            dropout,
            seed: self.seed.integer("seed")?.unwrap_or(1),
            retries: self
                .retries
                .integer("retries")?
                .map_or(2, |r| (r as usize).min(8)),
            votes: self
                .votes
                .integer("votes")?
                .map_or(3, |v| (v as usize).clamp(1, 15)),
        })
    }
}

/// One request line as scanned, before any field is checked. A
/// repeated key overwrites the earlier one (the last one wins).
#[derive(Debug, Default)]
struct Fields<'a> {
    line_len: usize,
    /// `None` when absent or not a string.
    id: Option<String>,
    circuit: Option<Cow<'a, str>>,
    groups: Scalar,
    partitions: Scalar,
    patterns: Scalar,
    /// `Some(None)`: present but not a string.
    scheme: Option<Option<Cow<'a, str>>>,
    signatures: Option<Grid<u64>>,
    failing: Option<Grid<usize>>,
    deadline_ms: Scalar,
    /// `Some(None)`: present but not an object.
    robust: Option<Option<RobustFields>>,
    top: Scalar,
}

impl<'a> Fields<'a> {
    /// Scans the whole line. Only malformed JSON fails here; a member
    /// of the wrong type is recorded and reported by [`Fields::check`].
    fn decode(line: &'a str) -> Result<Fields<'a>, JsonError> {
        let mut fields = Fields {
            line_len: line.len(),
            ..Fields::default()
        };
        let mut r = Reader::new(line);
        r.skip_ws();
        if r.peek() == Some(b'{') {
            r.object(0, |r, key| fields.member(r, &key))?;
        } else {
            // Any other document is valid JSON with no fields.
            r.skip_value(0)?;
        }
        r.finish()?;
        Ok(fields)
    }

    fn member(&mut self, r: &mut Reader<'a>, key: &str) -> Result<(), JsonError> {
        let depth = MEMBER_DEPTH;
        match key {
            "id" => self.id = read_string(r, depth)?.map(Cow::into_owned),
            "circuit" => self.circuit = read_string(r, depth)?,
            "scheme" => self.scheme = Some(read_string(r, depth)?),
            "groups" => self.groups = Scalar::read(r, depth)?,
            "partitions" => self.partitions = Scalar::read(r, depth)?,
            "patterns" => self.patterns = Scalar::read(r, depth)?,
            "deadline_ms" => self.deadline_ms = Scalar::read(r, depth)?,
            "top" => self.top = Scalar::read(r, depth)?,
            "signatures" => {
                self.signatures = Some(Grid::read(r, depth, self.grid_hint(), signature_entry)?);
            }
            "failing" => {
                self.failing = Some(Grid::read(r, depth, self.grid_hint(), failing_entry)?);
            }
            "robust" => self.robust = Some(RobustFields::read(r, depth)?),
            _ => r.skip_value(depth)?,
        }
        Ok(())
    }

    /// Evidence capacity from the `partitions` and `groups` read so far
    /// (or their defaults). Each is granted only when that many rows
    /// (`[],` each) or full rows (`0,` per entry) fit in the line, so
    /// allocation stays proportional to the input.
    fn grid_hint(&self) -> (usize, usize) {
        let known = |scalar: Scalar, default: usize| match scalar {
            Scalar::Absent => default,
            Scalar::Number(Number::Int(n)) => usize::try_from(n).unwrap_or(usize::MAX),
            _ => 0,
        };
        let rows = known(self.partitions, DEFAULT_PARTITIONS);
        let cols = known(self.groups, usize::from(DEFAULT_GROUPS));
        let fit = |n: usize, bytes_each: usize| {
            if n.max(1).saturating_mul(bytes_each) <= self.line_len {
                n
            } else {
                0
            }
        };
        (fit(rows, 3), fit(cols, rows.max(1).saturating_mul(2)))
    }

    /// Checks every field, in a fixed order, into a request whose `id`
    /// the caller fills in.
    fn check(self) -> Result<DiagnoseRequest, String> {
        let circuit = self
            .circuit
            .ok_or_else(|| "`circuit` (string) is required".to_owned())?
            .into_owned();
        let groups = match self.groups.integer("groups")? {
            None => DEFAULT_GROUPS,
            Some(g) => u16::try_from(g)
                .ok()
                .filter(|&g| g > 0)
                .ok_or_else(|| format!("`groups` out of range: {g}"))?,
        };
        #[allow(clippy::cast_possible_truncation)]
        let partitions = self
            .partitions
            .integer("partitions")?
            .map_or(DEFAULT_PARTITIONS, |p| p as usize);
        if partitions == 0 || partitions > 4096 {
            return Err(format!("`partitions` out of range: {partitions}"));
        }
        #[allow(clippy::cast_possible_truncation)]
        let patterns = self
            .patterns
            .integer("patterns")?
            .map_or(DEFAULT_PATTERNS, |p| p as usize);
        if patterns == 0 || patterns > 1 << 20 {
            return Err(format!("`patterns` out of range: {patterns}"));
        }
        let scheme = match self.scheme {
            None => "two-step",
            Some(None) => return Err("`scheme` must be a string".to_owned()),
            Some(Some(label)) => canonical_scheme(&label)?,
        };
        let evidence = match (self.signatures, self.failing) {
            (Some(_), Some(_)) => {
                return Err(
                    "exactly one of `signatures` or `failing` is required, not both".to_owned(),
                )
            }
            (None, None) => {
                return Err("exactly one of `signatures` or `failing` is required".to_owned())
            }
            (Some(grid), None) => Evidence::Signatures(check_signatures(grid, groups, partitions)?),
            (None, Some(grid)) => Evidence::Failing(check_failing(grid, groups, partitions)?),
        };
        let deadline_ms = self.deadline_ms.integer("deadline_ms")?;
        let robust = match self.robust {
            None => None,
            Some(None) => return Err("`robust` must be an object".to_owned()),
            Some(Some(fields)) => Some(fields.check()?),
        };
        #[allow(clippy::cast_possible_truncation)]
        let top = self
            .top
            .integer("top")?
            .map_or(DEFAULT_TOP, |t| (t as usize).clamp(1, 4096));
        Ok(DiagnoseRequest {
            id: String::new(),
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
}

fn check_signatures(
    grid: Grid<u64>,
    groups: u16,
    partitions: usize,
) -> Result<Vec<Vec<u64>>, String> {
    let (rows, fault) = grid.rows("signatures", partitions)?;
    for (p, row) in rows.iter().enumerate() {
        let fault = fault.filter(|f| f.row == p).map(|f| f.kind);
        if let Some(FaultKind::RowNotArray) = fault {
            return Err(format!("`signatures[{p}]` must be an array"));
        }
        if row.len() != usize::from(groups) {
            return Err(format!(
                "`signatures[{p}]` has {} entries; expected one per group ({groups})",
                row.len()
            ));
        }
        match fault {
            Some(FaultKind::NotNumber(g)) => {
                return Err(format!("`signatures[{p}][{g}]` must be a number"));
            }
            Some(FaultKind::Invalid(g, n)) => {
                let n = n.as_f64();
                return Err(if n >= 0.0 && n.fract() == 0.0 {
                    format!(
                        "`signatures[{p}][{g}]` is out of range: at most 2^64-1 \
                         (2^53 with a fraction or exponent)"
                    )
                } else {
                    format!("`signatures[{p}][{g}]` must be a non-negative integer")
                });
            }
            _ => {}
        }
    }
    Ok(rows)
}

fn check_failing(
    grid: Grid<usize>,
    groups: u16,
    partitions: usize,
) -> Result<Vec<Vec<usize>>, String> {
    let (rows, fault) = grid.rows("failing", partitions)?;
    for (p, row) in rows.iter().enumerate() {
        let fault = fault.filter(|f| f.row == p).map(|f| f.kind);
        if let Some(FaultKind::RowNotArray) = fault {
            return Err(format!("`failing[{p}]` must be an array"));
        }
        for (i, &g) in row.iter().enumerate() {
            let bad = match fault {
                Some(FaultKind::NotNumber(j)) if j == i => {
                    return Err(format!("`failing[{p}][{i}]` must be a number"));
                }
                Some(FaultKind::Invalid(j, n)) if j == i => Some(n.as_f64()),
                #[allow(clippy::cast_precision_loss)]
                _ => (g >= usize::from(groups)).then_some(g as f64),
            };
            if let Some(n) = bad {
                return Err(format!(
                    "`failing[{p}][{i}]` = {n} is not a group index < {groups}"
                ));
            }
        }
    }
    Ok(rows)
}

impl DiagnoseRequest {
    /// Parses one NDJSON line in a single pass over its bytes (see the
    /// module docs for the integer and key rules).
    ///
    /// # Errors
    ///
    /// Malformed JSON is a `bad-request` [`ErrorBody`] with no id. Any
    /// other failure is a `bad-request` naming the offending field,
    /// paired with the request `id` when the line carries a string one
    /// (so the error line can be correlated).
    pub fn parse_line(line: &str) -> Result<DiagnoseRequest, (Option<String>, ErrorBody)> {
        let mut fields = Fields::decode(line)
            .map_err(|e| (None, ErrorBody::bad_request(format!("malformed JSON: {e}"))))?;
        let Some(id) = fields.id.take() else {
            return Err((
                None,
                ErrorBody::bad_request("`id` (string) is required".to_owned()),
            ));
        };
        match fields.check() {
            Ok(request) => Ok(DiagnoseRequest { id, ..request }),
            Err(message) => Err((Some(id), ErrorBody::bad_request(message))),
        }
    }

    /// The plan-cache key: every field that shapes the
    /// [`DiagnosisPlan`](scan_diagnosis::DiagnosisPlan).
    #[must_use]
    pub fn cache_key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.circuit, self.groups, self.partitions, self.patterns, self.scheme
        )
    }

    /// The request's evidence as an engine [`SessionOutcome`].
    #[must_use]
    pub fn outcome(&self) -> SessionOutcome {
        match &self.evidence {
            Evidence::Signatures(grid) => SessionOutcome::from_signatures(grid),
            Evidence::Failing(grid) => {
                let fails = grid
                    .iter()
                    .map(|row| {
                        let mut flags = vec![false; usize::from(self.groups)];
                        for &g in row {
                            flags[g] = true;
                        }
                        flags
                    })
                    .collect();
                SessionOutcome::from_verdicts(fails)
            }
        }
    }
}

/// The fields of a success response line; [`OkLine::render`] turns it
/// into the wire string.
pub struct OkLine<'a> {
    /// Echoed correlation id.
    pub id: &'a str,
    /// Service mode: `degraded` when a robust-replay request was shed
    /// to the single-pass path under load, `full` otherwise.
    pub mode: &'a str,
    /// Confidence label from the engine.
    pub confidence: &'a str,
    /// Inconclusive reason, when there is one.
    pub reason: Option<&'a str>,
    /// Ranked `[cell, score]` pairs.
    pub candidates: &'a [(usize, f64)],
    /// Scan-chain length the candidate indices refer to.
    pub cells: usize,
    /// Wall time spent on the job.
    pub elapsed_us: u64,
    /// Trace id stamped on the batch.
    pub trace: &'a str,
}

impl OkLine<'_> {
    /// Renders the success line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut line = String::with_capacity(160 + 24 * self.candidates.len());
        line.push_str("{\"id\":\"");
        escape_into(&mut line, self.id);
        let _ = write!(
            line,
            "\",\"status\":\"ok\",\"mode\":\"{}\",\"confidence\":\"{}\"",
            self.mode, self.confidence
        );
        if let Some(reason) = self.reason {
            let _ = write!(line, ",\"reason\":\"{reason}\"");
        }
        line.push_str(",\"candidates\":[");
        for (i, (cell, score)) in self.candidates.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "[{cell},{score:.6}]");
        }
        let _ = write!(
            line,
            "],\"cells\":{},\"elapsed_us\":{},\"trace\":\"",
            self.cells, self.elapsed_us
        );
        escape_into(&mut line, self.trace);
        line.push_str("\"}");
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{"id":"r1","circuit":"s27","groups":4,"partitions":2,
        "patterns":8,"failing":[[0],[1,2]]}"#;

    #[test]
    fn minimal_request_parses_with_defaults() {
        let req = DiagnoseRequest::parse_line(MINIMAL).expect("parses");
        assert_eq!(req.id, "r1");
        assert_eq!(req.circuit, "s27");
        assert_eq!(req.groups, 4);
        assert_eq!(req.partitions, 2);
        assert_eq!(req.scheme, "two-step");
        assert_eq!(req.top, 32);
        assert!(req.robust.is_none());
        assert_eq!(req.evidence, Evidence::Failing(vec![vec![0], vec![1, 2]]));
        let outcome = req.outcome();
        assert!(outcome.failed(0, 0));
        assert!(!outcome.failed(0, 1));
        assert!(outcome.failed(1, 2));
    }

    #[test]
    fn signatures_request_round_trips_to_outcome() {
        let line = r#"{"id":"s","circuit":"s27","groups":2,"partitions":2,
            "signatures":[[5,0],[0,9]]}"#;
        let req = DiagnoseRequest::parse_line(line).expect("parses");
        let outcome = req.outcome();
        assert!(outcome.failed(0, 0));
        assert_eq!(outcome.error_signature(0, 0), 5);
        assert!(!outcome.failed(0, 1));
        assert!(outcome.failed(1, 1));
    }

    #[test]
    fn large_signatures_are_exact_and_overflow_names_the_entry() {
        let line = r#"{"id":"big","circuit":"s27","groups":2,"partitions":1,
            "signatures":[[9007199254740993,18446744073709551615]]}"#;
        let req = DiagnoseRequest::parse_line(line).expect("parses");
        assert_eq!(
            req.evidence,
            Evidence::Signatures(vec![vec![9_007_199_254_740_993, u64::MAX]])
        );
        let line = r#"{"id":"over","circuit":"s27","groups":2,"partitions":1,
            "signatures":[[1,18446744073709551616]]}"#;
        let (id, err) = DiagnoseRequest::parse_line(line).expect_err("overflow");
        assert_eq!(id.as_deref(), Some("over"));
        assert_eq!((err.code, err.http), ("bad-request", 400));
        assert!(
            err.message.contains("`signatures[0][1]`"),
            "{}",
            err.message
        );
        // Scalar fields keep the 2^53 ceiling.
        let line = r#"{"id":"s","circuit":"s27","groups":1,"partitions":1,
            "failing":[[0]],"deadline_ms":9007199254740994}"#;
        let (_, err) = DiagnoseRequest::parse_line(line).expect_err("scalar ceiling");
        assert!(err.message.contains("`deadline_ms`"), "{}", err.message);
    }

    #[test]
    fn shape_errors_name_the_field() {
        let cases: &[(&str, &str)] = &[
            (r#"{"circuit":"s27","failing":[[0]]}"#, "`id`"),
            (r#"{"id":"x","failing":[[0]]}"#, "`circuit`"),
            (r#"{"id":"x","circuit":"s27"}"#, "`signatures` or `failing`"),
            (
                r#"{"id":"x","circuit":"s27","failing":[[0]],"signatures":[[1]]}"#,
                "not both",
            ),
            (
                r#"{"id":"x","circuit":"s27","partitions":2,"failing":[[0]]}"#,
                "one per partition",
            ),
            (
                r#"{"id":"x","circuit":"s27","groups":4,"partitions":1,"failing":[[9]]}"#,
                "group index",
            ),
            (
                r#"{"id":"x","circuit":"s27","scheme":"zigzag","failing":[[0]]}"#,
                "unknown scheme",
            ),
            (
                r#"{"id":"x","circuit":"s27","partitions":1,"groups":2,"signatures":[[1]]}"#,
                "one per group",
            ),
        ];
        for (line, needle) in cases {
            let (_, err) = DiagnoseRequest::parse_line(line).expect_err(line);
            assert_eq!(err.code, "bad-request", "{line}");
            assert_eq!(err.http, 400, "{line}");
            assert!(err.message.contains(needle), "{line} -> {}", err.message);
        }
    }

    #[test]
    fn malformed_json_still_reports_cleanly() {
        let (id, err) = DiagnoseRequest::parse_line("{nope").expect_err("bad json");
        assert!(id.is_none());
        assert_eq!(err.code, "bad-request");
        assert!(err.message.contains("malformed JSON"));
    }

    #[test]
    fn robust_block_parses_with_defaults_and_bounds() {
        let line = r#"{"id":"x","circuit":"s27","partitions":1,"groups":2,
            "failing":[[0]],"robust":{"flip":0.1,"seed":9}}"#;
        let req = DiagnoseRequest::parse_line(line).expect("parses");
        let robust = req.robust.expect("robust set");
        assert!((robust.flip - 0.1).abs() < f64::EPSILON);
        assert_eq!(robust.seed, 9);
        assert_eq!(robust.retries, 2);
        assert_eq!(robust.votes, 3);
        assert!((robust.noise_config().flip_rate - 0.1).abs() < f64::EPSILON);

        let bad = r#"{"id":"x","circuit":"s27","partitions":1,"groups":2,
            "failing":[[0]],"robust":{"flip":1.5}}"#;
        let (_, err) = DiagnoseRequest::parse_line(bad).expect_err("rate bound");
        assert!(err.message.contains("robust.flip"));
    }

    #[test]
    fn cache_key_covers_all_plan_inputs() {
        let req = DiagnoseRequest::parse_line(MINIMAL).expect("parses");
        assert_eq!(req.cache_key(), "s27/4/2/8/two-step");
    }

    #[test]
    fn ok_line_renders_valid_json() {
        let line = OkLine {
            id: "r\"1",
            mode: "full",
            confidence: "exact",
            reason: None,
            candidates: &[(17, 1.0), (20, 0.5)],
            cells: 125,
            elapsed_us: 412,
            trace: "0123456789abcdef",
        }
        .render();
        assert_eq!(
            line,
            r#"{"id":"r\"1","status":"ok","mode":"full","confidence":"exact","candidates":[[17,1.000000],[20,0.500000]],"cells":125,"elapsed_us":412,"trace":"0123456789abcdef"}"#
        );
        let value = scan_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(value.get("id").and_then(|v| v.as_str()), Some("r\"1"));
        assert_eq!(value.get("status").and_then(|v| v.as_str()), Some("ok"));
        let cands = value.get("candidates").and_then(|v| v.as_array()).unwrap();
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].as_array().unwrap()[0].as_f64(), Some(17.0));
    }

    #[test]
    fn error_line_renders_valid_json() {
        let body =
            ErrorBody::from_diagnose_error(&DiagnoseError::ContradictoryHistory { partition: 3 });
        let line = body.render(Some("r9"));
        let value = scan_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(value.get("status").and_then(|v| v.as_str()), Some("error"));
        let error = value.get("error").unwrap();
        assert_eq!(
            error.get("code").and_then(|v| v.as_str()),
            Some("contradictory")
        );
        assert_eq!(error.get("http").and_then(|v| v.as_f64()), Some(422.0));
        // Without an id the field is null, still valid JSON.
        let anon = scan_obs::json::parse(&body.render(None)).expect("valid JSON");
        assert_eq!(anon.get("id"), Some(&scan_obs::json::Value::Null));
    }
}
