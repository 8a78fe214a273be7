//! Property-based tests for the CLI front end, on the in-workspace
//! shrink-free harness: the argument parser never panics, accepts what
//! it should, and the JSON emitter always produces structurally valid
//! output.

use scan_rng::testkit::Runner;

use scan_bist_cli::json::JsonObject;
use scan_bist_cli::{parse_args, parse_invocation, Command};
use scan_obs::json::escape;

/// Arbitrary argument vectors never panic the parser — they parse or
/// produce a readable error.
#[test]
fn parser_is_total() {
    Runner::new(256).run("parser_is_total", |g| {
        let args = g.vec("args", 0, 5, |r| {
            let len = r.gen_range_inclusive(0, 12);
            (0..len)
                .map(|_| char::from(r.gen_range_inclusive(0x20, 0x7E) as u8))
                .collect::<String>()
        });
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        let _ = parse_args(refs.iter().copied());
        let _ = parse_invocation(refs.iter().copied());
    });
}

/// Valid diagnose invocations round-trip their numeric flags.
#[test]
fn diagnose_flags_roundtrip() {
    Runner::new(256).run("diagnose_flags_roundtrip", |g| {
        let groups = g.u16("groups", 1, 63);
        let partitions = g.usize("partitions", 1, 31);
        let patterns = g.usize("patterns", 1, 4095);
        let faults = g.usize("faults", 1, 1999);
        let groups_s = groups.to_string();
        let partitions_s = partitions.to_string();
        let patterns_s = patterns.to_string();
        let faults_s = faults.to_string();
        let args = vec![
            "diagnose",
            "s953",
            "--groups",
            &groups_s,
            "--partitions",
            &partitions_s,
            "--patterns",
            &patterns_s,
            "--faults",
            &faults_s,
        ];
        let cmd = parse_args(args.iter().copied()).expect("valid args parse");
        match cmd {
            Command::Diagnose {
                groups: gr,
                partitions: p,
                patterns: n,
                faults: f,
                ..
            } => {
                assert_eq!(gr, groups);
                assert_eq!(p, partitions);
                assert_eq!(n, patterns);
                assert_eq!(f, faults);
            }
            other => panic!("unexpected command {other:?}"),
        }
    });
}

/// JSON escaping always yields a quoted string whose interior contains
/// no raw quotes, backslashes, or control characters.
#[test]
fn escape_output_is_clean() {
    Runner::new(256).run("escape_output_is_clean", |g| {
        let text = g.unicode_string("text", 0, 64);
        let escaped = escape(&text);
        assert!(escaped.starts_with('"') && escaped.ends_with('"'));
        let interior = &escaped[1..escaped.len() - 1];
        let mut chars = interior.chars();
        while let Some(c) = chars.next() {
            assert!((c as u32) >= 0x20, "raw control char {c:?}");
            if c == '\\' {
                let next = chars.next().expect("escape sequence is complete");
                assert!(matches!(next, '"' | '\\' | 'n' | 'r' | 't' | 'u'));
                if next == 'u' {
                    for _ in 0..4 {
                        let h = chars.next().expect("4 hex digits");
                        assert!(h.is_ascii_hexdigit());
                    }
                }
            } else {
                assert_ne!(c, '"');
            }
        }
    });
}

/// Objects built from arbitrary fields are balanced and key-quoted.
#[test]
fn json_objects_are_balanced() {
    Runner::new(256).run("json_objects_are_balanced", |g| {
        const KEY_CHARS: [char; 27] = [
            'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q',
            'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z', '_',
        ];
        let keys = g.vec("keys", 1, 5, |r| {
            let len = r.gen_range_inclusive(1, 10);
            (0..len)
                .map(|_| KEY_CHARS[r.gen_index(KEY_CHARS.len())])
                .collect::<String>()
        });
        let value = g.f64("value", -1e6, 1e6);
        let mut o = JsonObject::new();
        for key in &keys {
            o.number(key, value);
        }
        let text = o.finish();
        let balanced = text.starts_with('{') && text.ends_with('}');
        assert!(balanced, "unbalanced object: {text}");
        assert_eq!(text.matches(':').count(), keys.len());
        assert_eq!(text.matches(',').count(), keys.len() - 1);
    });
}

/// A leading --json never changes which command parses.
#[test]
fn json_flag_is_transparent() {
    Runner::new(256).run("json_flag_is_transparent", |g| {
        const NAME_CHARS: [char; 36] = [
            'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q',
            'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z', '0', '1', '2', '3', '4', '5', '6', '7',
            '8', '9',
        ];
        let circuit = g.string_of("circuit", &NAME_CHARS, 1, 8);
        let plain = parse_args(["stats", circuit.as_str()]).expect("parses");
        let with_json = parse_invocation(["--json", "stats", circuit.as_str()]).expect("parses");
        assert!(with_json.json);
        assert_eq!(with_json.command, plain);
    });
}

/// `obs query` counter sums are bit-identical to the totals the
/// metrics registry snapshot holds when fed the same values — the
/// same numbers `obs-check` validates in the snapshot export. The
/// query engine must not round, reorder into different f64 sums, or
/// reformat: each group's `value` is the exact integer total.
#[test]
fn obs_query_counter_sums_match_snapshot_totals() {
    use std::collections::BTreeMap;
    use std::io::Write as _;

    use scan_bist_cli::run;
    use scan_obs::query::{Agg, QuerySpec};

    const NAME_CHARS: [char; 28] = [
        'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r',
        's', 't', 'u', 'v', 'w', 'x', 'y', 'z', '.', '_',
    ];
    let case = std::sync::atomic::AtomicU32::new(0);
    Runner::new(48).run("obs_query_counter_sums_match_snapshot_totals", |g| {
        let case = case.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Distinct counter names from an escape-free alphabet.
        let name_count = g.usize("names", 1, 6);
        let names: Vec<String> = (0..name_count)
            .map(|i| format!("ctr.{i}.{}", g.string_of("stem", &NAME_CHARS, 1, 8)))
            .collect();
        // Each value stays below 2^32, so every possible sum is well
        // under 2^53 and exactly representable in the f64 the JSON
        // layer carries.
        let events: Vec<(usize, u64)> = g.vec("events", 1, 40, |r| {
            let idx = r.gen_range_inclusive(0, name_count - 1);
            (idx, r.next_u64() >> 32)
        });

        // Independent ground truth, and the registry's own view of the
        // same stream of increments.
        let mut expected: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for &(idx, value) in &events {
            let entry = expected.entry(names[idx].clone()).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += value;
        }
        scan_obs::registry::reset();
        scan_obs::init(&scan_obs::ObsConfig {
            metrics: true,
            ..scan_obs::ObsConfig::disabled()
        });
        for &(idx, value) in &events {
            scan_obs::metrics::add(&names[idx], value);
        }
        let snapshot = scan_obs::registry::snapshot();
        scan_obs::reset();
        for (name, &(_, sum)) in &expected {
            assert_eq!(
                snapshot.counters.get(name).copied(),
                Some(sum),
                "registry snapshot disagrees with ground truth for {name}"
            );
        }

        // Spread the same events over 1..=3 NDJSON stream files, with
        // non-counter noise the type filter must drop.
        let stream_count = g.usize("streams", 1, 3);
        let mut streams: Vec<String> = vec![String::new(); stream_count];
        for (i, &(idx, value)) in events.iter().enumerate() {
            let line = format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}\n",
                names[idx]
            );
            streams[i % stream_count].push_str(&line);
        }
        streams[0]
            .push_str("{\"type\":\"span\",\"path\":\"noise/work\",\"start_ns\":1,\"dur_ns\":5}\n");
        let dir = std::env::temp_dir();
        let files: Vec<std::path::PathBuf> = streams
            .iter()
            .enumerate()
            .map(|(i, text)| {
                let path = dir.join(format!(
                    "scanbist_query_prop_{}_{case}_{i}.ndjson",
                    std::process::id()
                ));
                let mut f = std::fs::File::create(&path).expect("temp stream writes");
                f.write_all(text.as_bytes()).expect("temp stream writes");
                path
            })
            .collect();

        let command = Command::ObsQuery {
            files: files.iter().map(|p| p.display().to_string()).collect(),
            spec: QuerySpec {
                types: vec!["counter".to_string()],
                group_by: Some("name".to_string()),
                agg: Agg::Sum,
                field: Some("value".to_string()),
                ..QuerySpec::default()
            },
        };
        let mut out = Vec::new();
        let code = run(&command, &mut out);
        for path in &files {
            std::fs::remove_file(path).ok();
        }
        assert_eq!(code, 0, "query over generated streams succeeds");
        let text = String::from_utf8(out).expect("query output is UTF-8");

        // Bit-identical: the rendered group value is the exact integer
        // total the snapshot holds, not a rounded or re-associated sum.
        assert!(
            text.contains(&format!("\"matched\":{}", events.len())),
            "all counter records (and nothing else) match: {text}"
        );
        for (name, &(n, sum)) in &expected {
            let group = format!("{{\"key\":\"{name}\",\"n\":{n},\"value\":{sum}}}");
            assert!(text.contains(&group), "missing group {group} in: {text}");
        }
        let parsed = scan_obs::json::parse(text.trim()).expect("query output parses as JSON");
        let doc = parsed.as_object().expect("query output is an object");
        let groups = doc["groups"].as_array().expect("groups array present");
        assert_eq!(groups.len(), expected.len(), "one group per counter name");
    });
}
