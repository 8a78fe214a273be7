//! The experiment registry: every table, figure and ablation the
//! workspace regenerates, in reporting order, and the one run
//! lifecycle their binaries share.
//!
//! Each experiment lives in `experiments/<name>.rs` as `fn run() ->
//! Report`; `src/bin/<name>.rs` is a shim that calls [`main`] with its
//! name and stdout, `all_experiments` runs the binaries named in
//! [`ALL`], and `results/<name>.txt` holds what each one prints.
//! Adding an experiment takes its module, its entry in the list below
//! and its shim.

use std::io::Write;

use crate::report::Report;

/// One experiment: the name of its binary and results file, and the
/// function that computes what it prints.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Binary name, also the stem of `results/<name>.txt`.
    pub name: &'static str,
    /// Runs the experiment.
    pub run: fn() -> Report,
}

macro_rules! registry {
    ($($name:ident),+ $(,)?) => {
        $(mod $name;)+

        /// Every experiment, in reporting order.
        pub const ALL: &[Experiment] = &[
            $(Experiment { name: stringify!($name), run: $name::run },)+
        ];
    };
}

registry!(
    table1,
    table2,
    table3,
    table4,
    figure3,
    figure5,
    clustering,
    ablation_ordering,
    ablation_misr,
    ablation_interval_count,
    ablation_xmask,
    ablation_chain_mask,
    multifault,
    noise_sweep,
    vectors,
    windows,
    adaptive_compare,
    dictionary,
    localization,
    two_faulty_cores,
    overhead,
    compactors,
    coverage,
    weighted,
    topoff,
    diagnosis_time,
    chain_defects,
);

/// The experiment named `name`, if there is one.
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}

/// The whole run of the experiment binary `name`: starts its observed
/// session ([`start_session`](crate::start_session), which handles
/// `--help` and the shared observability flags), runs the experiment,
/// writes its report to `out` and finishes the session.
///
/// # Panics
///
/// Panics when `name` is not in [`ALL`], when the experiment panics, or
/// when writing to `out` fails.
pub fn main(name: &str, out: &mut impl Write) {
    let experiment = find(name).unwrap_or_else(|| panic!("no experiment named `{name}`"));
    let session = crate::start_session(name);
    let report = (experiment.run)();
    out.write_all(report.render().as_bytes())
        .and_then(|()| out.flush())
        .expect("write the report");
    session.finish(false);
}
