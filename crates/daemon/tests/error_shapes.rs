//! Satellite: the wire error contract is a public API. Every
//! [`DiagnoseError`], [`CampaignError`], and [`DiagnosisStatus`]
//! variant is pinned here to its stable `{"error":{...}}` shape —
//! code, HTTP status, and round-trip through the repo's own JSON
//! parser. A new variant that silently falls through to `internal`
//! or a renamed code breaks clients; this suite makes that a test
//! failure instead of a production surprise.

use scan_daemon::protocol::ErrorBody;
use scan_diagnosis::{
    BuildPlanError, CampaignError, DiagnoseError, DiagnosisStatus, NoiseConfig, NoiseConfigError,
    NoiseModel,
};
use scan_obs::json::{self, Value};
use scan_sim::PatternShapeError;

/// Parses a rendered NDJSON error line and returns
/// `(id, code, http, message)` from the envelope.
fn decode(line: &str) -> (Option<String>, String, f64, String) {
    let value = json::parse(line).expect("error lines are valid JSON");
    let object = value.as_object().expect("envelope is an object");
    assert_eq!(
        object.get("status").and_then(Value::as_str),
        Some("error"),
        "status field"
    );
    let id = object.get("id").and_then(Value::as_str).map(str::to_owned);
    let error = object
        .get("error")
        .and_then(Value::as_object)
        .expect("error object");
    let code = error
        .get("code")
        .and_then(Value::as_str)
        .expect("code string")
        .to_owned();
    let http = error
        .get("http")
        .and_then(Value::as_f64)
        .expect("http number");
    let message = error
        .get("message")
        .and_then(Value::as_str)
        .expect("message string")
        .to_owned();
    (id, code, http, message)
}

fn assert_shape(body: &ErrorBody, code: &str, http: u16) {
    assert_eq!(body.code, code);
    assert_eq!(body.http, http);
    let (id, got_code, got_http, message) = decode(&body.render(Some("req-1")));
    assert_eq!(id.as_deref(), Some("req-1"));
    assert_eq!(got_code, code);
    assert!((got_http - f64::from(http)).abs() < 0.5);
    assert!(!message.is_empty(), "{code}: message must not be empty");
}

fn pattern_shape_error() -> PatternShapeError {
    PatternShapeError {
        expected_pis: 4,
        expected_ffs: 3,
        found_pis: 5,
        found_ffs: 3,
    }
}

fn noise_config_error() -> NoiseConfigError {
    let bad = NoiseConfig {
        flip_rate: 2.0,
        ..NoiseConfig::noiseless(1)
    };
    NoiseModel::new(bad).expect_err("rate 2.0 is invalid")
}

#[test]
fn every_diagnose_error_variant_is_pinned() {
    let cases: Vec<(DiagnoseError, &str, u16)> = vec![
        (DiagnoseError::AllSessionsPassed, "all-passed", 422),
        (
            DiagnoseError::ContradictoryHistory { partition: 3 },
            "contradictory",
            422,
        ),
        (
            DiagnoseError::Cancelled {
                completed_partitions: 2,
            },
            "cancelled",
            504,
        ),
    ];
    for (error, code, http) in cases {
        assert_shape(&ErrorBody::from_diagnose_error(&error), code, http);
    }
}

#[test]
fn every_campaign_error_variant_is_pinned() {
    let cases: Vec<(CampaignError, &str, u16)> = vec![
        (
            CampaignError::Patterns(pattern_shape_error()),
            "bad-patterns",
            400,
        ),
        (
            CampaignError::Plan(BuildPlanError::EmptyLayout),
            "bad-plan",
            400,
        ),
        (
            CampaignError::Plan(BuildPlanError::DegenerateConfig),
            "bad-plan",
            400,
        ),
        (
            CampaignError::NoSuchCore {
                core: 9,
                available: 4,
            },
            "no-such-core",
            404,
        ),
        (CampaignError::NoDetectedFaults, "no-detected-faults", 422),
        (CampaignError::NotSocCampaign, "not-soc-campaign", 400),
        (CampaignError::Noise(noise_config_error()), "bad-noise", 400),
    ];
    for (error, code, http) in cases {
        assert_shape(&ErrorBody::from_campaign_error(&error), code, http);
    }
}

#[test]
fn every_diagnosis_status_variant_is_pinned() {
    assert!(
        ErrorBody::from_status(&DiagnosisStatus::Consistent).is_none(),
        "a consistent history is not an error"
    );
    let all_passed =
        ErrorBody::from_status(&DiagnosisStatus::AllPassed).expect("all-passed is an error");
    assert_shape(&all_passed, "all-passed", 422);
    let contradictory = ErrorBody::from_status(&DiagnosisStatus::Contradictory { partition: 1 })
        .expect("contradictory is an error");
    assert_shape(&contradictory, "contradictory", 422);
}

#[test]
fn messages_carry_variant_detail() {
    let body =
        ErrorBody::from_diagnose_error(&DiagnoseError::ContradictoryHistory { partition: 7 });
    assert!(
        body.message.contains('7'),
        "partition index: {}",
        body.message
    );

    let body = ErrorBody::from_campaign_error(&CampaignError::NoSuchCore {
        core: 9,
        available: 4,
    });
    assert!(body.message.contains('9'), "core index: {}", body.message);
    assert!(body.message.contains('4'), "available: {}", body.message);
}

#[test]
fn null_id_and_escaping_round_trip() {
    let body = ErrorBody::bad_request("line 3: bad \"evidence\"\n<tab\t>".to_owned());
    let anonymous = body.render(None);
    let value = json::parse(&anonymous).expect("valid JSON with null id");
    let object = value.as_object().unwrap();
    assert!(matches!(object.get("id"), Some(Value::Null)));

    let (id, code, _, message) = decode(&body.render(Some("id \"quoted\"")));
    assert_eq!(id.as_deref(), Some("id \"quoted\""));
    assert_eq!(code, "bad-request");
    assert_eq!(message, "line 3: bad \"evidence\"\n<tab\t>");
}

#[test]
fn codes_are_stable_kebab_case() {
    // The full closed set of error codes the daemon can emit at the
    // NDJSON line level. Adding a code is fine (append here); renaming
    // or dropping one is a breaking change.
    let known = [
        "bad-request",
        "all-passed",
        "contradictory",
        "cancelled",
        "internal",
        "bad-patterns",
        "bad-plan",
        "no-such-core",
        "no-detected-faults",
        "not-soc-campaign",
        "bad-noise",
        "http",
    ];
    for code in known {
        assert!(
            code.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
            "{code} must be kebab-case"
        );
    }
    let bodies = [
        ErrorBody::bad_request("x".to_owned()),
        ErrorBody::from_diagnose_error(&DiagnoseError::AllSessionsPassed),
        ErrorBody::from_campaign_error(&CampaignError::NoDetectedFaults),
        ErrorBody::from_http_error(&scan_obs::http::HttpError::BodyTooLarge),
    ];
    for body in &bodies {
        assert!(known.contains(&body.code), "unknown code {}", body.code);
    }
}

#[test]
fn http_errors_map_to_http_code() {
    use scan_obs::http::HttpError;
    let cases: Vec<(HttpError, u16)> = vec![
        (HttpError::Timeout, 408),
        (HttpError::Malformed("bad request line"), 400),
        (HttpError::DuplicateContentLength, 400),
        (HttpError::RequestLineTooLong, 414),
        (HttpError::HeadTooLarge, 431),
        (HttpError::BodyTooLarge, 413),
        (HttpError::UnsupportedTransferEncoding, 501),
    ];
    for (error, http) in cases {
        let body = ErrorBody::from_http_error(&error);
        assert_shape(&body, "http", http);
    }
}
