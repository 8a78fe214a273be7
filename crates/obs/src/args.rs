//! The observability flags every front end accepts.
//!
//! `scanbist` and each experiment binary take the same nine flags —
//! `--trace`, `--trace-out <path>`, `--metrics-out <path>`,
//! `--profile`, `--profile-out <path>`, `--progress`,
//! `--serve-metrics <addr>`, `--slo <slo.toml>` and
//! `--flight-recorder <path>` — and [`ObsConfig::from_args`] is the one
//! place they are read. The flags may appear anywhere in the argument
//! list; everything else is handed back in order for the caller's own
//! parser, `--help` included.

use std::fmt;

use crate::ObsConfig;

/// A value flag given as the last argument, with no value after it.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct ObsArgsError {
    /// The flag that is missing its value, e.g. `--metrics-out`.
    pub flag: String,
}

impl fmt::Display for ObsArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flag `{}` needs a value", self.flag)
    }
}

impl std::error::Error for ObsArgsError {}

impl ObsConfig {
    /// Splits the observability flags out of `args` (the arguments
    /// without the program name) and returns the configuration they
    /// select plus the remaining arguments in order. `--trace` without
    /// `--trace-out` writes `trace_<binary>.ndjson`.
    ///
    /// # Errors
    ///
    /// Returns [`ObsArgsError`] naming the flag when a value flag is
    /// the last argument.
    pub fn from_args<I>(binary: &str, args: I) -> Result<(ObsConfig, Vec<String>), ObsArgsError>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut config = ObsConfig::disabled();
        let mut rest = Vec::new();
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| ObsArgsError { flag: arg.clone() })
            };
            match arg.as_str() {
                "--trace" => config.trace = true,
                "--trace-out" => {
                    config.trace = true;
                    config.trace_path = Some(value()?.into());
                }
                "--metrics-out" => {
                    config.metrics = true;
                    config.metrics_path = Some(value()?.into());
                }
                "--profile" => config.profile = true,
                "--profile-out" => {
                    config.profile = true;
                    config.profile_path = Some(value()?.into());
                }
                "--progress" => config.progress = true,
                "--serve-metrics" => config.serve_addr = Some(value()?),
                "--slo" => config.slo_path = Some(value()?.into()),
                "--flight-recorder" => config.flight_path = Some(value()?.into()),
                _ => rest.push(arg),
            }
        }
        if config.trace && config.trace_path.is_none() {
            config.trace_path = Some(format!("trace_{binary}.ndjson").into());
        }
        Ok((config, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(binary: &str, args: &[&str]) -> (ObsConfig, Vec<String>) {
        ObsConfig::from_args(binary, args.iter().copied()).expect("parses")
    }

    fn missing(args: &[&str]) -> String {
        ObsConfig::from_args("table1", args.iter().copied())
            .expect_err("a value flag without a value is an error")
            .flag
    }

    #[test]
    fn no_flags_is_disabled_and_transparent() {
        let (config, rest) = split("table1", &["results", "extra"]);
        assert!(!config.is_enabled());
        assert_eq!(rest, ["results", "extra"]);
    }

    #[test]
    fn trace_defaults_the_stream_path() {
        let (config, rest) = split("table1", &["--trace"]);
        assert!(config.trace);
        assert_eq!(
            config.trace_path.as_deref(),
            Some("trace_table1.ndjson".as_ref())
        );
        assert!(rest.is_empty());
    }

    #[test]
    fn explicit_paths_and_positionals_interleave() {
        let (config, rest) = split(
            "table3",
            &[
                "out",
                "--metrics-out",
                "m.json",
                "--progress",
                "--trace-out",
                "t.ndjson",
            ],
        );
        assert!(config.trace && config.metrics && config.progress);
        assert_eq!(config.metrics_path.as_deref(), Some("m.json".as_ref()));
        assert_eq!(config.trace_path.as_deref(), Some("t.ndjson".as_ref()));
        assert_eq!(rest, ["out"]);
    }

    #[test]
    fn parses_observability_global_flags() {
        let (config, rest) = split(
            "scanbist",
            &[
                "--json",
                "--trace",
                "--metrics-out",
                "m.json",
                "--progress",
                "stats",
                "s27",
            ],
        );
        assert!(config.trace && config.metrics && config.progress);
        assert_eq!(
            config.trace_path.as_deref(),
            Some("trace_scanbist.ndjson".as_ref())
        );
        assert_eq!(config.metrics_path.as_deref(), Some("m.json".as_ref()));
        assert_eq!(rest, ["--json", "stats", "s27"]);

        let (config, rest) = split("scanbist", &["--trace-out", "t.ndjson", "help"]);
        assert_eq!(config.trace_path.as_deref(), Some("t.ndjson".as_ref()));
        assert!(!config.progress);
        assert_eq!(rest, ["help"]);

        let (plain, _) = split("scanbist", &["stats", "s27"]);
        assert!(!plain.is_enabled());

        // After the subcommand as well as before it.
        let (config, rest) = split("scanbist", &["stats", "s27", "--progress"]);
        assert!(config.progress);
        assert_eq!(rest, ["stats", "s27"]);

        assert_eq!(missing(&["--metrics-out"]), "--metrics-out");
    }

    #[test]
    fn profile_flags_enable_profiling() {
        let (config, rest) = split("fig4", &["--profile"]);
        assert!(config.profile && config.profile_path.is_none());
        assert!(config.profiling() && rest.is_empty());

        let (config, _) = split("fig4", &["--profile-out", "p.folded"]);
        assert!(config.profile);
        assert_eq!(config.profile_path.as_deref(), Some("p.folded".as_ref()));
    }

    #[test]
    fn parses_profile_and_audit_flags() {
        let (config, _) = split("scanbist", &["--profile", "stats", "s27"]);
        assert!(config.profile && config.profile_path.is_none() && config.profiling());

        // `--audit-out` is the CLI's own flag: it stays in the rest.
        let (config, rest) = split(
            "scanbist",
            &[
                "--profile-out",
                "out/p.folded",
                "--audit-out",
                "out/a.ndjson",
                "diagnose",
                "s27",
            ],
        );
        assert!(config.profile && config.profiling());
        assert_eq!(
            config.profile_path.as_deref(),
            Some("out/p.folded".as_ref())
        );
        assert_eq!(rest, ["--audit-out", "out/a.ndjson", "diagnose", "s27"]);

        assert_eq!(missing(&["--profile-out"]), "--profile-out");
    }

    #[test]
    fn serve_metrics_flag_sets_the_address_and_sampling() {
        let (config, rest) = split("table1", &["--serve-metrics", "127.0.0.1:0", "out"]);
        assert_eq!(config.serve_addr.as_deref(), Some("127.0.0.1:0"));
        assert!(config.sampling() && config.is_enabled());
        assert_eq!(rest, ["out"]);

        assert_eq!(missing(&["--serve-metrics"]), "--serve-metrics");
    }

    #[test]
    fn parses_serve_metrics_flag() {
        let (config, _) = split(
            "scanbist",
            &["--serve-metrics", "127.0.0.1:0", "stats", "s27"],
        );
        assert_eq!(config.serve_addr.as_deref(), Some("127.0.0.1:0"));
        assert!(config.sampling() && config.is_enabled());

        let (plain, _) = split("scanbist", &["stats", "s27"]);
        assert!(plain.serve_addr.is_none() && !plain.sampling());

        assert_eq!(missing(&["--serve-metrics"]), "--serve-metrics");
    }

    #[test]
    fn slo_and_flight_recorder_flags_set_paths_and_sampling() {
        let (config, rest) = split(
            "table1",
            &[
                "--slo",
                "slo.toml",
                "--flight-recorder",
                "flight.ndjson",
                "out",
            ],
        );
        assert_eq!(config.slo_path.as_deref(), Some("slo.toml".as_ref()));
        assert_eq!(
            config.flight_path.as_deref(),
            Some("flight.ndjson".as_ref())
        );
        assert!(config.sampling() && config.is_enabled());
        assert_eq!(rest, ["out"]);

        assert_eq!(missing(&["--slo"]), "--slo");
        assert_eq!(missing(&["--flight-recorder"]), "--flight-recorder");
    }

    #[test]
    fn parses_slo_and_flight_recorder_flags() {
        let (config, _) = split(
            "scanbist",
            &[
                "stats",
                "s27",
                "--slo",
                "slo.toml",
                "--flight-recorder",
                "flight.ndjson",
            ],
        );
        assert_eq!(config.slo_path.as_deref(), Some("slo.toml".as_ref()));
        assert_eq!(
            config.flight_path.as_deref(),
            Some("flight.ndjson".as_ref())
        );
        // Both imply sampling so the evaluator/ring get ticks.
        assert!(config.sampling() && config.is_enabled());

        assert_eq!(missing(&["stats", "--slo"]), "--slo");
        assert_eq!(
            missing(&["stats", "--flight-recorder"]),
            "--flight-recorder"
        );
    }

    #[test]
    fn every_value_flag_without_a_value_is_an_error() {
        for flag in [
            "--trace-out",
            "--metrics-out",
            "--profile-out",
            "--serve-metrics",
            "--slo",
            "--flight-recorder",
        ] {
            assert_eq!(missing(&["out", flag]), flag);
            let error = ObsConfig::from_args("table1", [flag]).unwrap_err();
            assert_eq!(error.to_string(), format!("flag `{flag}` needs a value"));
        }
    }

    #[test]
    fn help_flag_stays_in_rest_for_start_to_handle() {
        let (config, rest) = split("table1", &["--help"]);
        assert!(!config.is_enabled());
        assert_eq!(rest, ["--help"]);
    }
}
