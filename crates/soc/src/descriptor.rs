//! SOC descriptor files — an ITC'02-inspired text format.
//!
//! The paper builds its second SOC from the ITC'02 SOC Test Benchmarks
//! \[11\]. The original `.soc` files describe each module's terminals
//! and scan chains; this module parses a documented subset sufficient
//! for diagnosis experiments and instantiates the modules from the
//! synthetic benchmark generator:
//!
//! ```text
//! # comment
//! soc d695
//! tam 8
//! core s838
//! core s9234
//! ...
//! ```
//!
//! Directives:
//!
//! * `soc <name>` — the SOC name (required, once, first).
//! * `tam <width>` — TAM width; `1` (or omitting the directive) builds
//!   a single meta scan chain, larger widths build balanced chains.
//! * `core <benchmark>` — appends an embedded core by ISCAS-89
//!   benchmark name, in daisy-chain order.

use std::error::Error;
use std::fmt;

use scan_netlist::generate;

use crate::core_module::CoreModule;
use crate::error::BuildSocError;
use crate::meta_chain::Soc;

/// Error returned when parsing an SOC descriptor fails.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ParseSocError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseSocErrorKind,
}

/// The specific descriptor parsing failure.
#[derive(Clone, Eq, PartialEq, Debug)]
#[non_exhaustive]
pub enum ParseSocErrorKind {
    /// An unknown directive keyword.
    UnknownDirective(String),
    /// A directive had the wrong number or shape of arguments.
    BadArguments(String),
    /// A `core` directive names an unknown benchmark.
    UnknownBenchmark(String),
    /// The `soc` directive is missing or repeated.
    MissingName,
    /// The resulting SOC failed structural validation.
    Build(BuildSocError),
}

impl fmt::Display for ParseSocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ParseSocErrorKind::UnknownDirective(d) => write!(f, "unknown directive `{d}`"),
            ParseSocErrorKind::BadArguments(l) => write!(f, "bad arguments in `{l}`"),
            ParseSocErrorKind::UnknownBenchmark(n) => write!(f, "unknown benchmark `{n}`"),
            ParseSocErrorKind::MissingName => write!(f, "missing or repeated `soc <name>`"),
            ParseSocErrorKind::Build(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ParseSocError {}

/// A parsed descriptor, not yet instantiated.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct SocDescriptor {
    /// SOC name.
    pub name: String,
    /// TAM width (number of meta scan chains).
    pub tam_width: usize,
    /// Benchmark names, in daisy-chain order.
    pub cores: Vec<String>,
}

impl SocDescriptor {
    /// Parses descriptor text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseSocError`] on malformed directives or unknown
    /// benchmarks.
    ///
    /// # Panics
    ///
    /// Panics only on internal invariant violations.
    pub fn parse(text: &str) -> Result<Self, ParseSocError> {
        let mut name: Option<String> = None;
        let mut tam_width = 1usize;
        let mut cores = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let directive = words.next().expect("non-empty line has a word");
            let args: Vec<&str> = words.collect();
            match directive {
                "soc" => {
                    if name.is_some() || args.len() != 1 {
                        return Err(ParseSocError {
                            line: lineno,
                            kind: ParseSocErrorKind::MissingName,
                        });
                    }
                    name = Some(args[0].to_owned());
                }
                "tam" => {
                    let width = args
                        .first()
                        .and_then(|w| w.parse::<usize>().ok())
                        .filter(|&w| w >= 1 && args.len() == 1);
                    match width {
                        Some(w) => tam_width = w,
                        None => {
                            return Err(ParseSocError {
                                line: lineno,
                                kind: ParseSocErrorKind::BadArguments(line.to_owned()),
                            })
                        }
                    }
                }
                "core" => {
                    if args.len() != 1 {
                        return Err(ParseSocError {
                            line: lineno,
                            kind: ParseSocErrorKind::BadArguments(line.to_owned()),
                        });
                    }
                    let core = args[0];
                    if core != "s27" && generate::profile(core).is_none() {
                        return Err(ParseSocError {
                            line: lineno,
                            kind: ParseSocErrorKind::UnknownBenchmark(core.to_owned()),
                        });
                    }
                    cores.push(core.to_owned());
                }
                other => {
                    return Err(ParseSocError {
                        line: lineno,
                        kind: ParseSocErrorKind::UnknownDirective(other.to_owned()),
                    })
                }
            }
        }
        let name = name.ok_or(ParseSocError {
            line: 0,
            kind: ParseSocErrorKind::MissingName,
        })?;
        Ok(SocDescriptor {
            name,
            tam_width,
            cores,
        })
    }

    /// Instantiates the SOC: every core from the benchmark generator,
    /// threaded as one meta chain (`tam 1`) or `tam` balanced chains.
    ///
    /// # Errors
    ///
    /// Returns [`ParseSocError`] (kind [`ParseSocErrorKind::Build`]) if
    /// the SOC structure is invalid (e.g. duplicate core names).
    pub fn build(&self) -> Result<Soc, ParseSocError> {
        let cores: Vec<CoreModule> = self
            .cores
            .iter()
            .map(|name| CoreModule::new(generate::benchmark(name)))
            .collect();
        let result = if self.tam_width == 1 {
            Soc::single_chain(self.name.clone(), cores)
        } else {
            Soc::balanced(self.name.clone(), cores, self.tam_width)
        };
        result.map_err(|e| ParseSocError {
            line: 0,
            kind: ParseSocErrorKind::Build(e),
        })
    }
}

/// The embedded descriptor of the paper's second SOC (the d695
/// variant).
pub const D695_DESCRIPTOR: &str = include_str!("data/d695.soc");

/// The embedded descriptor of the paper's first SOC (six largest
/// ISCAS-89 cores on one meta chain).
pub const SOC1_DESCRIPTOR: &str = include_str!("data/soc1.soc");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_descriptor() {
        let d = SocDescriptor::parse("soc tiny\ncore s27\n").unwrap();
        assert_eq!(d.name, "tiny");
        assert_eq!(d.tam_width, 1);
        assert_eq!(d.cores, vec!["s27".to_owned()]);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let d = SocDescriptor::parse("# header\nsoc x # inline\n\ntam 4\ncore s298\n").unwrap();
        assert_eq!(d.tam_width, 4);
    }

    #[test]
    fn embedded_d695_matches_hardcoded_builder() {
        let d = SocDescriptor::parse(D695_DESCRIPTOR).unwrap();
        let from_text = d.build().unwrap();
        let hardcoded = crate::d695::soc2().unwrap();
        assert_eq!(from_text.num_chains(), hardcoded.num_chains());
        assert_eq!(from_text.total_positions(), hardcoded.total_positions());
        let names: Vec<&str> = from_text
            .cores()
            .iter()
            .map(super::super::core_module::CoreModule::name)
            .collect();
        let expected: Vec<&str> = hardcoded
            .cores()
            .iter()
            .map(super::super::core_module::CoreModule::name)
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn embedded_soc1_matches_hardcoded_builder() {
        let d = SocDescriptor::parse(SOC1_DESCRIPTOR).unwrap();
        let from_text = d.build().unwrap();
        let hardcoded = crate::d695::soc1().unwrap();
        assert_eq!(from_text.num_chains(), 1);
        assert_eq!(from_text.total_positions(), hardcoded.total_positions());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = SocDescriptor::parse("soc x\nbogus y\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseSocErrorKind::UnknownDirective(_)));
        let err = SocDescriptor::parse("soc x\ncore not_a_chip\n").unwrap_err();
        assert!(matches!(err.kind, ParseSocErrorKind::UnknownBenchmark(_)));
        let err = SocDescriptor::parse("core s27\n").unwrap_err();
        assert!(matches!(err.kind, ParseSocErrorKind::MissingName));
        let err = SocDescriptor::parse("soc x\ntam zero\n").unwrap_err();
        assert!(matches!(err.kind, ParseSocErrorKind::BadArguments(_)));
    }

    #[test]
    fn duplicate_cores_fail_at_build() {
        let d = SocDescriptor::parse("soc x\ncore s27\ncore s27\n").unwrap();
        let err = d.build().unwrap_err();
        assert!(matches!(err.kind, ParseSocErrorKind::Build(_)));
    }
}
