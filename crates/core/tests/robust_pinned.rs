//! Pinned-output regression tests for the noisy-replay path.
//!
//! `diagnose_robust` and `NoiseModel::observe` sit behind the noise
//! campaigns, the audit trails and the daemon's robust replay. These
//! tests pin the FNV-1a digest of every `RobustDiagnosis` field —
//! confidence, candidates, prefix counts, retry rounds, retried
//! sessions, fallback use, inconclusive reason, recovery events and the
//! final verdict grid — plus the digest of the `observe` grids, over
//! three plan shapes, sixteen faults each, and six noise
//! configurations. Between them the configurations reach every recovery
//! branch: flip only, heavy dropout, total dropout (`all-lost`),
//! intermittent faults, and a flip rate high enough to fall back to
//! weighted voting. A change to
//! the engine or to the noise streams that moves any output bit fails
//! here first, naming the configuration and the field.

use scan_bist::Scheme;
use scan_diagnosis::robust::RobustEvent;
use scan_diagnosis::{
    diagnose_robust, BistConfig, ChainLayout, DiagnosisPlan, InconclusiveReason, NoiseConfig,
    NoiseModel, ObservedOutcome, RobustDiagnosis, RobustPolicy, SessionOutcome, Verdict,
};
use scan_rng::testkit::Runner;
use scan_rng::ScanRng;

/// Faults per plan shape; every eighth one has no error bits.
const FAULTS: u64 = 16;

/// Attempts whose `observe` grids are digested per fault.
const ATTEMPTS: u64 = 3;

/// Digested fields, in the order of each row of [`PINS`].
const FIELDS: [&str; 10] = [
    "confidence",
    "candidates",
    "prefix_counts",
    "retry_rounds",
    "retried_sessions",
    "used_fallback",
    "inconclusive",
    "events",
    "verdicts",
    "observe",
];

/// Digests recorded before the flat verdict grid replaced the nested
/// one; they must not move. The noiseless `confidence` and
/// `inconclusive` words were re-recorded when a noiseless all-passed
/// history became `Inconclusive`/`all-passed` instead of `Exact`.
const PINS: [(&str, [u64; 10]); 6] = [
    (
        "noiseless",
        [
            0xD53B_D40B_B34B_1F1F,
            0x3C1A_7DEB_F633_AE5C,
            0x2F6C_0A17_DDD2_789D,
            0xC86E_C345_C0EE_8125,
            0xC86E_C345_C0EE_8125,
            0xA09D_945A_1CD8_D6E5,
            0x8C79_291E_41A4_5FB7,
            0xC86E_C345_C0EE_8125,
            0xC8DF_C0B2_6029_0E8F,
            0x30B6_8E21_8DA7_F49A,
        ],
    ),
    (
        "flip",
        [
            0x3050_63A5_5A6C_DA66,
            0x137F_6E4A_8DF6_5421,
            0x74A1_6F39_D64C_D99F,
            0x2E99_86E0_11A7_0624,
            0x175D_0B24_DBF3_1A1F,
            0xF976_8057_E6AF_B1C5,
            0x96D5_4B8E_51D1_EAC5,
            0xDC97_2AD3_FE40_AE8F,
            0x2F38_DE62_E27B_FA51,
            0xD3FB_E81B_0537_1606,
        ],
    ),
    (
        "dropout-heavy",
        [
            0x71FB_3975_771D_442D,
            0x9765_AD44_C728_2A2D,
            0xD180_7DB3_A828_B7CB,
            0x883C_EA20_BED4_7425,
            0xC01C_35F4_C12B_06CE,
            0x792C_2168_7695_8CB5,
            0x8C79_291E_41A4_5FB7,
            0x834F_87E5_9971_7C4A,
            0xDE92_9F95_A8EB_3C69,
            0x833D_DF6C_E6D5_AB06,
        ],
    ),
    (
        "dropout-total",
        [
            0x0333_F7FC_EB0C_C9A5,
            0xC86E_C345_C0EE_8125,
            0x37CA_90B1_FAC4_7B25,
            0x480B_10FB_BCBA_6725,
            0xB022_2A1B_B06C_1A25,
            0xA09D_945A_1CD8_D6E5,
            0x1C83_6F9B_A213_DA25,
            0x7984_59DF_02B4_A5A5,
            0xFFCA_0C42_6175_4B25,
            0x994E_F93E_828B_3568,
        ],
    ),
    (
        "intermittent",
        [
            0xAABD_F973_993A_FEEB,
            0x215E_FC6B_7374_6ECD,
            0xEE6E_3C78_0327_B007,
            0xAD43_05D4_1107_AF44,
            0xF522_87C7_CB6B_003A,
            0xEA40_5C89_423B_DEC3,
            0x9992_BC7A_6614_4FA7,
            0xD529_E2B0_1D40_BAB9,
            0x8179_B0BA_5C1F_841D,
            0xF303_E118_E88F_DB18,
        ],
    ),
    (
        "flip-heavy",
        [
            0x93F1_B922_47DD_D65F,
            0x8727_9213_7142_C135,
            0x54C1_3700_9F86_6971,
            0x469F_7CBB_B7C9_7DE5,
            0x38D2_11D2_3E1B_00F4,
            0xA1F7_BE99_A465_B81F,
            0x96D5_4B8E_51D1_EAC5,
            0x74EB_3283_24CC_9D9D,
            0x9594_CF54_AC7B_22AD,
            0x400B_664C_14EB_95BA,
        ],
    ),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }
}

/// Three plan shapes: one chain under random selection, four chains
/// under the two-step scheme, and a ragged interval-based chain whose
/// groups do not divide it.
fn plans() -> Vec<DiagnosisPlan> {
    let four_chains =
        ChainLayout::from_coords((0..160u32).map(|cell| (cell % 4, cell / 4)).collect());
    vec![
        DiagnosisPlan::new(
            ChainLayout::single_chain(100),
            16,
            &BistConfig::new(8, 6, Scheme::RandomSelection),
        )
        .expect("valid plan"),
        DiagnosisPlan::new(
            four_chains,
            32,
            &BistConfig::new(16, 8, Scheme::TWO_STEP_DEFAULT),
        )
        .expect("valid plan"),
        DiagnosisPlan::new(
            ChainLayout::single_chain(257),
            70,
            &BistConfig::new(5, 4, Scheme::IntervalBased),
        )
        .expect("valid plan"),
    ]
}

/// The true outcome of fault `fault`: one to three failing cells with
/// one to three error patterns each, or none at all for every eighth
/// fault.
fn truth(plan: &DiagnosisPlan, fault: u64) -> SessionOutcome {
    let mut rng = ScanRng::seed_from_u64(scan_rng::derive(0x0B5E_2003, fault));
    let mut bits = Vec::new();
    if fault % 8 != 7 {
        for _ in 0..rng.gen_range_inclusive(1, 3) {
            let cell = rng.gen_index(plan.layout().num_cells());
            for _ in 0..rng.gen_range_inclusive(1, 3) {
                bits.push((cell, rng.gen_index(plan.num_patterns())));
            }
        }
    }
    plan.analyze(bits)
}

/// The pinned noise configurations and the retry policy each runs
/// under.
fn configs() -> Vec<(&'static str, NoiseConfig, RobustPolicy)> {
    let base = NoiseConfig::noiseless(0xDA7E_2003);
    let policy = RobustPolicy::default();
    vec![
        ("noiseless", base, policy),
        (
            "flip",
            NoiseConfig {
                flip_rate: 0.04,
                ..base
            },
            policy,
        ),
        (
            "dropout-heavy",
            NoiseConfig {
                dropout_rate: 0.9,
                ..base
            },
            RobustPolicy {
                max_retry_rounds: 3,
                votes: 4,
            },
        ),
        (
            "dropout-total",
            NoiseConfig {
                dropout_rate: 1.0,
                ..base
            },
            policy,
        ),
        (
            "intermittent",
            NoiseConfig {
                flip_rate: 0.01,
                intermittent_rate: 0.5,
                intermittent_miss: 0.6,
                ..base
            },
            policy,
        ),
        (
            "flip-heavy",
            NoiseConfig {
                flip_rate: 0.3,
                dropout_rate: 0.05,
                ..base
            },
            RobustPolicy {
                max_retry_rounds: 1,
                votes: 3,
            },
        ),
    ]
}

fn verdict_code(verdict: Verdict) -> u8 {
    match verdict {
        Verdict::Pass => b'P',
        Verdict::Fail => b'F',
        Verdict::Lost => b'L',
    }
}

fn grid(h: &mut Fnv, grid: &ObservedOutcome) {
    h.word(grid.num_partitions() as u64);
    for p in 0..grid.num_partitions() {
        h.word(grid.num_groups(p) as u64);
        for g in 0..grid.num_groups(p) {
            h.bytes(&[verdict_code(grid.verdict(p, g as u16))]);
        }
    }
}

fn event(h: &mut Fnv, event: &RobustEvent) {
    match *event {
        RobustEvent::Retry { round, sessions } => {
            h.bytes(b"R");
            h.word(round as u64);
            h.word(sessions as u64);
        }
        RobustEvent::Vote {
            partition,
            group,
            fail_votes,
            pass_votes,
            lost_votes,
            verdict,
        } => {
            h.bytes(b"V");
            h.word(partition as u64);
            h.word(u64::from(group));
            h.word(fail_votes as u64);
            h.word(pass_votes as u64);
            h.word(lost_votes as u64);
            h.bytes(&[verdict_code(verdict)]);
        }
        RobustEvent::Fallback {
            partition,
            support,
            candidates,
        } => {
            h.bytes(b"B");
            h.word(partition as u64);
            h.word(support.to_bits());
            h.word(candidates as u64);
        }
    }
}

/// Folds one diagnosis into the first nine per-field digests.
fn fold(digests: &mut [Fnv], d: &RobustDiagnosis) {
    digests[0].bytes(d.confidence.label().as_bytes());
    digests[1].word(d.candidates.len() as u64);
    for cell in d.candidates.iter() {
        digests[1].word(cell as u64);
    }
    digests[2].word(d.prefix_counts.len() as u64);
    for &count in &d.prefix_counts {
        digests[2].word(count as u64);
    }
    digests[3].word(d.retry_rounds as u64);
    digests[4].word(d.retried_sessions as u64);
    digests[5].bytes(&[u8::from(d.used_fallback)]);
    digests[6].bytes(
        d.inconclusive
            .map_or("-", InconclusiveReason::label)
            .as_bytes(),
    );
    digests[6].bytes(b"\n");
    digests[7].word(d.events.len() as u64);
    for e in &d.events {
        event(&mut digests[7], e);
    }
    grid(&mut digests[8], &d.verdicts);
}

/// A truth grid with rows of unequal length, as `from_signatures`
/// accepts.
fn ragged_truth() -> SessionOutcome {
    SessionOutcome::from_signatures(vec![
        vec![0, 5, 0],
        vec![1],
        vec![0, 0, 0, 0, 0, 9, 0],
        vec![],
        vec![3, 0, 3, 0, 3],
    ])
}

/// Every result of one configuration over every shape and fault.
fn run(noise: &NoiseModel, policy: &RobustPolicy) -> Vec<RobustDiagnosis> {
    let mut results = Vec::new();
    for plan in plans() {
        for fault in 0..FAULTS {
            results.push(diagnose_robust(
                &plan,
                &truth(&plan, fault),
                noise,
                policy,
                fault,
            ));
        }
    }
    results
}

fn digests(noise: &NoiseModel, policy: &RobustPolicy) -> [u64; 10] {
    let mut digests: Vec<Fnv> = (0..FIELDS.len()).map(|_| Fnv::new()).collect();
    for d in run(noise, policy) {
        fold(&mut digests, &d);
    }
    let mut truths: Vec<SessionOutcome> = Vec::new();
    for plan in plans() {
        truths.extend((0..FAULTS).map(|fault| truth(&plan, fault)));
    }
    truths.push(ragged_truth());
    for (fault, truth) in truths.iter().enumerate() {
        for attempt in 0..ATTEMPTS {
            grid(
                &mut digests[9],
                &noise.observe(truth, fault as u64, attempt),
            );
        }
    }
    let mut out = [0u64; 10];
    for (slot, h) in out.iter_mut().zip(&digests) {
        *slot = h.0;
    }
    out
}

#[test]
fn robust_diagnoses_and_observed_grids_are_pinned() {
    let mut actual = Vec::new();
    for (name, config, policy) in configs() {
        let noise = NoiseModel::new(config).expect("pinned config is valid");
        actual.push((name, digests(&noise, &policy)));
    }
    let mut moved = Vec::new();
    for ((name, got), (pin_name, want)) in actual.iter().zip(PINS) {
        assert_eq!(*name, pin_name, "configuration order moved");
        for (field, (g, w)) in FIELDS.iter().zip(got.iter().zip(want)) {
            if *g != w {
                moved.push(format!("{name}.{field}"));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, d)| {
            let words: Vec<String> = d.iter().map(|w| format!("{w:#018X}")).collect();
            format!("    (\"{name}\", [{}]),\n", words.join(", "))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "pinned digests moved: {moved:?}\nthis tree's table:\n{table}"
    );
}

#[test]
fn pinned_configurations_reach_every_recovery_branch() {
    let mut seen = Vec::new();
    for (name, config, policy) in configs() {
        let noise = NoiseModel::new(config).expect("pinned config is valid");
        for d in run(&noise, &policy) {
            let label = match (d.used_fallback, d.inconclusive) {
                (true, _) => "fallback",
                (false, Some(reason)) => reason.label(),
                (false, None) => d.confidence.label(),
            };
            seen.push((name, label));
        }
    }
    for want in [
        ("noiseless", "exact"),
        ("noiseless", "all-passed"),
        ("flip", "exact"),
        ("flip", "degraded"),
        ("flip", "fallback"),
        ("dropout-heavy", "degraded"),
        ("dropout-heavy", "all-passed"),
        ("dropout-heavy", "fallback"),
        ("dropout-total", "all-lost"),
        ("intermittent", "all-passed"),
        ("intermittent", "fallback"),
        ("flip-heavy", "degraded"),
        ("flip-heavy", "fallback"),
    ] {
        assert!(
            seen.contains(&want),
            "no pinned run reaches {want:?}: {seen:?}"
        );
    }
}

#[test]
fn observed_grid_matches_per_session_draws() {
    Runner::new(200).run("observe agrees with observe_verdict", |g| {
        let rows = g.usize("partitions", 0, 6);
        let signatures: Vec<Vec<u64>> = (0..rows)
            .map(|p| {
                let len = g.usize(&format!("groups[{p}]"), 0, 9);
                (0..len).map(|_| u64::from(g.bool("fail"))).collect()
            })
            .collect();
        let truth = SessionOutcome::from_signatures(signatures);
        let config = NoiseConfig {
            seed: g.u64("seed", 0, u64::MAX),
            flip_rate: g.pick("flip", &[0.0, 0.1, 0.5, 1.0]),
            dropout_rate: g.pick("dropout", &[0.0, 0.2, 1.0]),
            intermittent_rate: g.pick("intermittent", &[0.0, 0.5, 1.0]),
            intermittent_miss: g.pick("miss", &[0.0, 0.7, 1.0]),
            x_corrupt_fraction: 0.0,
        };
        let noise = NoiseModel::new(config).expect("rates are probabilities");
        let fault = g.u64("fault", 0, 1 << 40);
        let attempt = g.u64("attempt", 0, 9);
        let observed = noise.observe(&truth, fault, attempt);
        assert_eq!(observed.num_partitions(), truth.num_partitions());
        let mut session = 0u64;
        for p in 0..truth.num_partitions() {
            assert_eq!(observed.num_groups(p), truth.num_groups(p));
            for group in 0..truth.num_groups(p) {
                let group = group as u16;
                let direct = noise.observe_verdict(truth.failed(p, group), fault, attempt, session);
                assert_eq!(observed.verdict(p, group), direct, "p={p} g={group}");
                session += 1;
            }
        }
    });
}
