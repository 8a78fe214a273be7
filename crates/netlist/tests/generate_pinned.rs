//! Pinned-output regression tests for the synthetic circuit generator.
//!
//! Every checked-in artifact downstream of circuit generation —
//! `results/*.txt`, the audit NDJSON, the benchmark reference digests —
//! depends on `generate` producing the exact same netlist for a given
//! `(profile, seed)`. That includes the order of its RNG draws: a pick
//! that selects the same net through a different sequence of draws
//! still shifts every later draw. These tests pin the FNV-1a digest of
//! `to_bench_string()` for every published profile at the benchmark
//! seed, and for every profile of at most 3 000 gates at seeds 0–3, so
//! any change to the generator's output (or its draw order) fails here
//! first. A third table pins configurations with a tiny locality window
//! and wide fan-in, which force the picker to widen its window on most
//! picks, a path the default configuration rarely takes.

use scan_netlist::generate::{
    generate, generate_with, profile, CircuitProfile, GeneratorConfig, DEFAULT_BENCHMARK_SEED,
    ISCAS85_PROFILES, ISCAS89_PROFILES,
};

/// Profiles up to this many gates are also pinned at [`SMALL_SEEDS`].
const SMALL_PROFILE_GATES: usize = 3_000;

const SMALL_SEEDS: [u64; 4] = [0, 1, 2, 3];

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(profile: &CircuitProfile, seed: u64) -> u64 {
    fnv1a(&generate(profile, seed).to_bench_string())
}

/// Configurations whose `1e-4` locality window is nearly always empty,
/// so most picks widen the window, and whose fan-in reaches 5: one flat
/// cloud and one twelve layers deep.
fn widening_configs() -> [GeneratorConfig; 2] {
    [1, 12].map(|levels| GeneratorConfig {
        locality: 1e-4,
        levels,
        max_fanin: 5,
        ..GeneratorConfig::default()
    })
}

fn all_profiles() -> impl Iterator<Item = &'static CircuitProfile> {
    ISCAS89_PROFILES.iter().chain(ISCAS85_PROFILES)
}

#[test]
fn every_profile_is_pinned_at_the_benchmark_seed() {
    let names: Vec<&str> = all_profiles().map(|p| p.name).collect();
    let pinned: Vec<&str> = PINS_BENCHMARK_SEED.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        pinned, names,
        "pin table out of step with the profile tables"
    );
    for (profile, (_, expected)) in all_profiles().zip(PINS_BENCHMARK_SEED) {
        assert_eq!(
            digest(profile, DEFAULT_BENCHMARK_SEED),
            *expected,
            "{} netlist moved at the benchmark seed",
            profile.name
        );
    }
}

#[test]
fn small_profiles_are_pinned_at_seeds_0_to_3() {
    let small: Vec<&CircuitProfile> = all_profiles()
        .filter(|p| p.gates <= SMALL_PROFILE_GATES)
        .collect();
    let names: Vec<&str> = small.iter().map(|p| p.name).collect();
    let pinned: Vec<&str> = PINS_SMALL_SEEDS.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        pinned, names,
        "pin table out of step with the profile tables"
    );
    for (profile, (_, expected)) in small.into_iter().zip(PINS_SMALL_SEEDS) {
        for (seed, want) in SMALL_SEEDS.into_iter().zip(expected) {
            assert_eq!(
                digest(profile, seed),
                *want,
                "{} netlist moved at seed {seed}",
                profile.name
            );
        }
    }
}

#[test]
fn widening_configs_are_pinned() {
    for (name, seed, expected) in PINS_WIDENING {
        let p = profile(name).expect("known profile");
        for (config, want) in widening_configs().iter().zip(expected) {
            assert_eq!(
                fnv1a(&generate_with(p, *seed, config).to_bench_string()),
                *want,
                "{name} netlist moved at seed {seed}, levels {}",
                config.levels
            );
        }
    }
}

/// FNV-1a of `to_bench_string()` at [`DEFAULT_BENCHMARK_SEED`], in
/// profile-table order (ISCAS-89 then ISCAS-85).
const PINS_BENCHMARK_SEED: &[(&str, u64)] = &[
    ("s27", 0x83f991461ce0650b),
    ("s298", 0xdf1417ec1945d4d6),
    ("s344", 0x1c9c47c92c2f0e53),
    ("s349", 0x960beace3632fd33),
    ("s382", 0x2354368363b3ab8a),
    ("s386", 0x03cd0015b01bb9d1),
    ("s400", 0x507da851d99459a2),
    ("s420", 0xa047a7dd5882791e),
    ("s444", 0x8db28532c071e43b),
    ("s510", 0x41f6647bbe034af1),
    ("s526", 0x594dadc50458d5c6),
    ("s641", 0x9aecfa98406f9af8),
    ("s713", 0x7396d81c5e637371),
    ("s820", 0xb1214a5d688edcfb),
    ("s832", 0xdcc54d61277dfc02),
    ("s838", 0xf17d6a98bd957eb7),
    ("s953", 0xdaf3012444badf30),
    ("s1196", 0x623272d04cc5028b),
    ("s1238", 0xa4ff148caaa210bd),
    ("s1423", 0x2858fdc291d4b189),
    ("s5378", 0x311e26a7411dec8d),
    ("s9234", 0x98e4d66def44d084),
    ("s13207", 0x066bb848a7175ad1),
    ("s15850", 0x675c35574d6d08cf),
    ("s35932", 0x79dbc294163abc36),
    ("s38417", 0x899502bd327748dd),
    ("s38584", 0x0c75db9167f3d43a),
    ("c432", 0x32b5f4550c14b503),
    ("c499", 0xc8a7cb4963946a04),
    ("c880", 0xd4380d98285c71b6),
    ("c1355", 0x44753c86e8ca46c5),
    ("c1908", 0x78ae4f79b38aed05),
    ("c2670", 0xf5d24f2c62c5dc8c),
    ("c3540", 0xffd6ebb46faea2b7),
    ("c5315", 0x911ddfc0146b1e75),
    ("c6288", 0x2574a9cc8a08ee54),
    ("c7552", 0xaaf8dbeeab4951b2),
];

/// FNV-1a of `to_bench_string()` at [`SMALL_SEEDS`], for every profile
/// of at most [`SMALL_PROFILE_GATES`] gates, in profile-table order.
#[rustfmt::skip]
const PINS_SMALL_SEEDS: &[(&str, [u64; 4])] = &[
    ("s27", [0x59dce6feca053f78, 0x0cc16e1284a129ad, 0x5d3ae2dd0791ffb4, 0x11fdb87684a74bde]),
    ("s298", [0x19b60cf7d670dd7f, 0x0d3a6db84fc8ef2a, 0xc56e505e8093bfc1, 0x0066c11158cba583]),
    ("s344", [0xb7ce987c7855f6cc, 0xa5dcec7328f40559, 0xbcd2a727e5d3009f, 0xa7bce99de6e3ae1b]),
    ("s349", [0xa9b3a555897bb576, 0xd37cefc5ecb3152c, 0xb152fa39678afa97, 0xc88a26297f0fd581]),
    ("s382", [0xe411d8ef2af899cf, 0x0fac20d0cbdf368a, 0xc36ee13ba1bd2959, 0xac445603015c778c]),
    ("s386", [0x76c2e7dac83259d5, 0x827064a4f35fa5dc, 0x155975aee0cd27f9, 0x32df8087ac9cc842]),
    ("s400", [0x071eeeadd2495849, 0x7ff0eb5faeabcc7f, 0x670cf005d35d8119, 0xb5aa2dc83823bd92]),
    ("s420", [0x7e9cf60e421c1afd, 0x62c419aca7b735a4, 0xf0fca5c7d4258b3c, 0xa52c2b8277a74115]),
    ("s444", [0x8dedf06d87398d8f, 0xacef2ab93d59a6d0, 0x9e79fc74ef86902e, 0x18fc749380a96800]),
    ("s510", [0x4e36b29fd5601782, 0xa2f14f19c652b878, 0xd38e6fa2c5f97ab6, 0x42bff07652db8c84]),
    ("s526", [0xe758a77aa2b8ef26, 0x05951d45231169e1, 0xb523da4fdbb67cee, 0x56dd2c8cc51f5d28]),
    ("s641", [0x90f55cf330d0b0bf, 0xa5ff71ff035cd25a, 0xcc97fc2f76654799, 0xc0a1d644c777becf]),
    ("s713", [0x3ff7dfdade39520a, 0xcf8c5680c27ab755, 0x695de0cb5e285314, 0xc678337a5ae40cec]),
    ("s820", [0x67d501a4b8cf2ac6, 0x7457db0bb641435a, 0xd50f80c72eb3be69, 0xbd45d2dbafff30a3]),
    ("s832", [0x20fdc5f4a114d93d, 0x5787e1071f129995, 0xabc39f0fca676d96, 0x8ac684b917c8ffb4]),
    ("s838", [0xd5f8cfe1abfde8ef, 0xd31312f7608cec21, 0x40d53c336ee2bc85, 0x422962b255410e83]),
    ("s953", [0x57d19885187040b7, 0x757ed9e13cb028fc, 0x7644ae06ef1fd242, 0x93e5bf0f95c9972d]),
    ("s1196", [0x716895b06c503433, 0x3ebdde9a35dcc2e6, 0xb590ba018d8438b6, 0x973cba89ac467f76]),
    ("s1238", [0x0a838f13c26f4e3f, 0x9b7f2367d32c96de, 0x9f8748b7ce53cbb2, 0xa4c0e09373f4251a]),
    ("s1423", [0x5174e92970b33399, 0x4f6f1ba06048f427, 0xfaa95d38c8c778ba, 0x30028690674e5b6d]),
    ("s5378", [0x4c108f9aca8f0487, 0xb5e542b86f485956, 0x8d7ece23cad758f3, 0x7dcfedfc58ba0256]),
    ("c432", [0xb4f32f4d0ec264d9, 0xd4458a6d59703ec3, 0xc9880d69127c2e87, 0x870f5dfb84156a98]),
    ("c499", [0xddf8c39a49321ef7, 0x4573909445e940fb, 0x0eda987c7070fdf4, 0x10a7e60c66c284d0]),
    ("c880", [0x1cffbf18e302513d, 0x2021045af1e563f5, 0x0ddaac4e11d5fcc2, 0xc7ff0bc1d1a4713d]),
    ("c1355", [0xeae5925d07a7b093, 0xc8ff32ac29ecff9b, 0x9faa6f5a5ac0b667, 0xb2cbf0c284000a0b]),
    ("c1908", [0x263b8db66ccfc942, 0x9b261aadd1a7fd66, 0x1f52efec08efdd0e, 0xb6f232c9cde5ec0d]),
    ("c2670", [0x169849571f2d4f63, 0xad74a25956cbda9a, 0x0055f0fa7502f685, 0x361c1109ae10cb7c]),
    ("c3540", [0x7b844730eff90eee, 0x4e0fb092fbdf3153, 0xf0c13e7c7e2560c3, 0x6f43ddd8280256cc]),
    ("c5315", [0x98aad75d2aa64a93, 0x099ff97c8979a048, 0x544ce12956f2c201, 0xb960ae7034c3d6ca]),
    ("c6288", [0x54067240cc3a1bdd, 0x719fe60303befc05, 0x85d59f66656ce359, 0x1f8ce5465f69fab3]),
];

/// FNV-1a of `to_bench_string()` under each of [`widening_configs`], as
/// `(profile, seed, [levels 1, levels 12])`.
#[rustfmt::skip]
const PINS_WIDENING: &[(&str, u64, [u64; 2])] = &[
    ("s298", 0, [0xc27868c3779c3e5c, 0x2532b540f473e0cc]),
    ("s953", 1, [0xe27158bc6e734344, 0xe542f81376c98861]),
    ("s1423", 2, [0x82af2c62830bf40e, 0x4059b8aafdfe38d8]),
    ("s5378", DEFAULT_BENCHMARK_SEED, [0xba6bc67b982e8582, 0xee6db04b7665aa00]),
    ("c880", 3, [0x70a88bb228d078d0, 0xeb54dbbe9b8eda47]),
    ("c6288", DEFAULT_BENCHMARK_SEED, [0x80361b0db195ca5a, 0xdfb7171c83dded33]),
];
