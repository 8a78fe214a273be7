//! Synthetic benchmark-class circuit generation.
//!
//! The original ISCAS-89 netlists are distribution-restricted artifacts.
//! This module generates *synthetic* sequential circuits matching the
//! published interface statistics (#PI, #PO, #DFF, approximate gate
//! count) of each benchmark, with **structurally local** connectivity:
//! every net has a spatial position in `[0, 1)`, gates draw their inputs
//! from a bounded window around their own position, and flip-flops are
//! indexed in position order (which becomes the natural scan order).
//!
//! Locality is the property the DATE 2003 experiments rely on: the cone
//! of a fault reaches a *contiguous-ish* band of scan cells, so failing
//! scan cells cluster in the scan chain — exactly the behaviour
//! interval-based partitioning exploits. See `DESIGN.md` §5 for the full
//! substitution rationale.
//!
//! # Cost and output contract
//!
//! Each gate input is one *pick*: a uniform draw from the nets of a
//! positional window over every earlier layer, preferring nets no gate
//! reads yet. Per gate, the generator formats one name (its output
//! net's, when it creates the net) straight into the builder's name
//! buffer and looks no name up: it drives the builder by [`NetId`]. The
//! gate's window is found once per gate unless a pick has to widen it:
//! per layer, a bucket table over the sorted positions gives a slot at
//! or before each window edge, and a short forward step (about one slot
//! on average) finds the edge. The window's pool sizes are then counted
//! once, by popcounts over the layer's read-flag bit row; each pick
//! takes one member from the drawn pool, found by a word scan of that
//! row, and lowers that pool's count by one. Generation is
//! O(gates · fan-in · (layers + window / 64)).
//!
//! The output for a given `(profile, seed, config)` is pinned byte for
//! byte (`tests/generate_pinned.rs`), and so is the *order of the RNG
//! draws* that produce it: the same nets reached through different draws
//! would shift every later pick. Every checked-in result downstream of a
//! generated circuit depends on both.

use scan_rng::ScanRng;

use crate::gate::{GateKind, NetId};
use crate::read_marks::{Pool, ReadMarks};
use crate::{Netlist, NetlistBuilder};

/// Published interface statistics of a benchmark circuit.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub struct CircuitProfile {
    /// Benchmark name (e.g. `"s953"`).
    pub name: &'static str,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of D flip-flops.
    pub dffs: usize,
    /// Approximate number of combinational gates.
    pub gates: usize,
}

/// Interface statistics of the ISCAS-89 benchmark family (from the
/// benchmark documentation; gate counts include inverters).
pub const ISCAS89_PROFILES: &[CircuitProfile] = &[
    CircuitProfile {
        name: "s27",
        inputs: 4,
        outputs: 1,
        dffs: 3,
        gates: 10,
    },
    CircuitProfile {
        name: "s298",
        inputs: 3,
        outputs: 6,
        dffs: 14,
        gates: 119,
    },
    CircuitProfile {
        name: "s344",
        inputs: 9,
        outputs: 11,
        dffs: 15,
        gates: 160,
    },
    CircuitProfile {
        name: "s349",
        inputs: 9,
        outputs: 11,
        dffs: 15,
        gates: 161,
    },
    CircuitProfile {
        name: "s382",
        inputs: 3,
        outputs: 6,
        dffs: 21,
        gates: 158,
    },
    CircuitProfile {
        name: "s386",
        inputs: 7,
        outputs: 7,
        dffs: 6,
        gates: 159,
    },
    CircuitProfile {
        name: "s400",
        inputs: 3,
        outputs: 6,
        dffs: 21,
        gates: 162,
    },
    CircuitProfile {
        name: "s420",
        inputs: 18,
        outputs: 1,
        dffs: 16,
        gates: 218,
    },
    CircuitProfile {
        name: "s444",
        inputs: 3,
        outputs: 6,
        dffs: 21,
        gates: 181,
    },
    CircuitProfile {
        name: "s510",
        inputs: 19,
        outputs: 7,
        dffs: 6,
        gates: 211,
    },
    CircuitProfile {
        name: "s526",
        inputs: 3,
        outputs: 6,
        dffs: 21,
        gates: 193,
    },
    CircuitProfile {
        name: "s641",
        inputs: 35,
        outputs: 24,
        dffs: 19,
        gates: 379,
    },
    CircuitProfile {
        name: "s713",
        inputs: 35,
        outputs: 23,
        dffs: 19,
        gates: 393,
    },
    CircuitProfile {
        name: "s820",
        inputs: 18,
        outputs: 19,
        dffs: 5,
        gates: 289,
    },
    CircuitProfile {
        name: "s832",
        inputs: 18,
        outputs: 19,
        dffs: 5,
        gates: 287,
    },
    CircuitProfile {
        name: "s838",
        inputs: 34,
        outputs: 1,
        dffs: 32,
        gates: 446,
    },
    CircuitProfile {
        name: "s953",
        inputs: 16,
        outputs: 23,
        dffs: 29,
        gates: 395,
    },
    CircuitProfile {
        name: "s1196",
        inputs: 14,
        outputs: 14,
        dffs: 18,
        gates: 529,
    },
    CircuitProfile {
        name: "s1238",
        inputs: 14,
        outputs: 14,
        dffs: 18,
        gates: 508,
    },
    CircuitProfile {
        name: "s1423",
        inputs: 17,
        outputs: 5,
        dffs: 74,
        gates: 657,
    },
    CircuitProfile {
        name: "s5378",
        inputs: 35,
        outputs: 49,
        dffs: 179,
        gates: 2779,
    },
    CircuitProfile {
        name: "s9234",
        inputs: 36,
        outputs: 39,
        dffs: 211,
        gates: 5597,
    },
    CircuitProfile {
        name: "s13207",
        inputs: 62,
        outputs: 152,
        dffs: 638,
        gates: 7951,
    },
    CircuitProfile {
        name: "s15850",
        inputs: 77,
        outputs: 150,
        dffs: 534,
        gates: 9772,
    },
    CircuitProfile {
        name: "s35932",
        inputs: 35,
        outputs: 320,
        dffs: 1728,
        gates: 16065,
    },
    CircuitProfile {
        name: "s38417",
        inputs: 28,
        outputs: 106,
        dffs: 1636,
        gates: 22179,
    },
    CircuitProfile {
        name: "s38584",
        inputs: 38,
        outputs: 304,
        dffs: 1426,
        gates: 19253,
    },
];

/// Interface statistics of the ISCAS-85 combinational benchmark family
/// (no flip-flops; the full d695 SOC includes two of these alongside
/// the ISCAS-89 modules).
pub const ISCAS85_PROFILES: &[CircuitProfile] = &[
    CircuitProfile {
        name: "c432",
        inputs: 36,
        outputs: 7,
        dffs: 0,
        gates: 160,
    },
    CircuitProfile {
        name: "c499",
        inputs: 41,
        outputs: 32,
        dffs: 0,
        gates: 202,
    },
    CircuitProfile {
        name: "c880",
        inputs: 60,
        outputs: 26,
        dffs: 0,
        gates: 383,
    },
    CircuitProfile {
        name: "c1355",
        inputs: 41,
        outputs: 32,
        dffs: 0,
        gates: 546,
    },
    CircuitProfile {
        name: "c1908",
        inputs: 33,
        outputs: 25,
        dffs: 0,
        gates: 880,
    },
    CircuitProfile {
        name: "c2670",
        inputs: 233,
        outputs: 140,
        dffs: 0,
        gates: 1193,
    },
    CircuitProfile {
        name: "c3540",
        inputs: 50,
        outputs: 22,
        dffs: 0,
        gates: 1669,
    },
    CircuitProfile {
        name: "c5315",
        inputs: 178,
        outputs: 123,
        dffs: 0,
        gates: 2307,
    },
    CircuitProfile {
        name: "c6288",
        inputs: 32,
        outputs: 32,
        dffs: 0,
        gates: 2416,
    },
    CircuitProfile {
        name: "c7552",
        inputs: 207,
        outputs: 108,
        dffs: 0,
        gates: 3512,
    },
];

/// The six largest ISCAS-89 benchmarks, as used in Table 2 of the paper.
pub const SIX_LARGEST: [&str; 6] = ["s9234", "s13207", "s15850", "s35932", "s38417", "s38584"];

/// Looks up the published profile for a benchmark name (ISCAS-89 or
/// ISCAS-85).
#[must_use]
pub fn profile(name: &str) -> Option<&'static CircuitProfile> {
    ISCAS89_PROFILES
        .iter()
        .chain(ISCAS85_PROFILES)
        .find(|p| p.name == name)
}

/// Tunable knobs for the synthetic generator.
#[derive(Clone, Copy, Debug)]
pub struct GeneratorConfig {
    /// Half-width of the positional window gates draw their inputs from,
    /// as a fraction of the unit position space. Smaller values produce
    /// tighter fault cones (more clustered failing scan cells).
    pub locality: f64,
    /// Number of combinational levels the gate cloud is spread over.
    pub levels: usize,
    /// Maximum gate fan-in (2..=this) for non-unary gates.
    pub max_fanin: usize,
    /// Fraction of gates that are inverters/buffers.
    pub unary_fraction: f64,
    /// Fraction of non-unary gates that are XOR/XNOR.
    pub xor_fraction: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        // Tuned so pseudorandom stuck-at coverage lands in the
        // benchmark-typical range (~70% with 128 patterns on the s953
        // profile): shallow-ish clouds with fan-in ≤ 3 and a healthy
        // XOR fraction keep fault effects observable, while the small
        // locality window keeps fault cones clustered in scan order.
        GeneratorConfig {
            locality: 0.06,
            levels: 5,
            max_fanin: 3,
            unary_fraction: 0.10,
            xor_fraction: 0.20,
        }
    }
}

/// Generates a synthetic circuit matching `profile`, deterministically
/// from `seed`.
///
/// The same `(profile, seed, config)` always yields the same netlist.
/// Flip-flops are created in position order, so
/// [`ScanView::natural`](crate::ScanView::natural) yields a
/// locality-respecting scan chain.
///
/// # Examples
///
/// ```
/// use scan_netlist::generate::{generate, profile};
///
/// let p = profile("s953").expect("known benchmark");
/// let n = generate(p, 1);
/// assert_eq!(n.num_dffs(), 29);
/// assert_eq!(n.num_inputs(), 16);
/// ```
#[must_use]
pub fn generate(profile: &CircuitProfile, seed: u64) -> Netlist {
    generate_with(profile, seed, &GeneratorConfig::default())
}

/// [`generate`] with explicit generator configuration.
///
/// # Panics
///
/// Panics only if the generator violates its own structural invariants
/// (which would be a bug, not a caller error).
#[must_use]
pub fn generate_with(profile: &CircuitProfile, seed: u64, config: &GeneratorConfig) -> Netlist {
    let _span = scan_obs::span!("netlist.generate");
    let mut rng = ScanRng::seed_from_u64(seed ^ hash_name(profile.name));
    let mut b = NetlistBuilder::new(profile.name);

    // Source nets with positions: PIs spread uniformly, FF outputs at
    // their index position (scan order == position order).
    let mut sources = Vec::with_capacity(profile.inputs + profile.dffs);
    for i in 0..profile.inputs {
        let net = b.new_net(format_args!("pi{i}"));
        b.add_input(net);
        let pos = (i as f64 + 0.5) / profile.inputs.max(1) as f64;
        sources.push((pos, net));
    }
    let mut ff_d_nets = Vec::with_capacity(profile.dffs);
    for i in 0..profile.dffs {
        let q = b.new_net(format_args!("q{i}"));
        let d = b.new_net(format_args!("d{i}"));
        b.add_dff(q, d);
        let pos = (i as f64 + 0.5) / profile.dffs.max(1) as f64;
        sources.push((pos, q));
        ff_d_nets.push((pos, d));
    }

    // Gate cloud: `levels` layers; each layer draws inputs from a window
    // around its position in all previous layers (and the sources).
    let levels = config.levels.max(1);
    let mut picker = Picker::new(config.locality);
    picker.push_layer(sources);
    let mut remaining = profile.gates;
    // Reserve one gate per FF D-input and per PO for the final hookup
    // stage so total gate count ≈ profile.gates.
    let hookups = profile.dffs + profile.outputs;
    let cloud = remaining.saturating_sub(hookups);
    let mut gate_counter = 0usize;
    for level in 0..levels {
        let this_level = if level + 1 == levels {
            cloud - cloud / levels * (levels - 1)
        } else {
            cloud / levels
        };
        let mut layer = Vec::with_capacity(this_level);
        for _ in 0..this_level {
            let pos: f64 = rng.next_f64();
            let net = b.new_net(format_args!("w{gate_counter}"));
            gate_counter += 1;
            let kind = pick_kind(&mut rng, config);
            let fanin = if kind.is_unary() {
                1
            } else {
                rng.gen_range_inclusive(2, config.max_fanin)
            };
            b.add_gate(kind, net, picker.pick_inputs(&mut rng, pos, fanin));
            layer.push((pos, net));
        }
        picker.push_layer(layer);
    }
    remaining = remaining.saturating_sub(cloud);

    // Hook up FF D-inputs: a gate near the FF's own position, so state
    // feedback is local.
    for &(pos, d) in &ff_d_nets {
        let kind = pick_kind_nonunary(&mut rng, config);
        let fanin = rng.gen_range_inclusive(2, config.max_fanin);
        b.add_gate(kind, d, picker.pick_inputs(&mut rng, pos, fanin));
        remaining = remaining.saturating_sub(1);
    }
    // Hook up POs similarly.
    for i in 0..profile.outputs {
        let net = b.new_net(format_args!("po{i}"));
        let pos = (i as f64 + 0.5) / profile.outputs.max(1) as f64;
        let kind = pick_kind_nonunary(&mut rng, config);
        let fanin = rng.gen_range_inclusive(2, config.max_fanin);
        b.add_gate(kind, net, picker.pick_inputs(&mut rng, pos, fanin));
        b.add_output(net);
    }

    // Free the picker before `finish` builds the netlist, so the
    // netlist can reuse its memory.
    drop(picker);
    b.finish()
        .expect("generator produces structurally valid netlists")
}

/// Generates the synthetic stand-in for a named ISCAS-89 benchmark with
/// the workspace's default seed, or parses the embedded real netlist for
/// `s27`.
///
/// This is the single entry point experiments use to obtain benchmark
/// circuits, keeping every table/figure reproducible.
///
/// # Panics
///
/// Panics if `name` is not an ISCAS-89 benchmark name.
#[must_use]
pub fn benchmark(name: &str) -> Netlist {
    if name == "s27" {
        return crate::bench::s27();
    }
    let p = profile(name).unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    generate(p, DEFAULT_BENCHMARK_SEED)
}

/// Number of observation points in the natural full-scan view of the
/// benchmark circuit `name` (its flip-flops, then its primary outputs):
/// what `ScanView::natural(&benchmark(name), true).len()` returns, read
/// from the published profile without building the circuit. `None` if
/// `name` is not a known benchmark.
///
/// # Examples
///
/// ```
/// use scan_netlist::generate::natural_scan_len;
///
/// assert_eq!(natural_scan_len("s27"), Some(3 + 1));
/// assert_eq!(natural_scan_len("s999999"), None);
/// ```
#[must_use]
pub fn natural_scan_len(name: &str) -> Option<usize> {
    profile(name).map(|p| p.dffs + p.outputs)
}

/// Seed used by [`benchmark`] for reproducible experiment circuits.
pub const DEFAULT_BENCHMARK_SEED: u64 = 0xDA7E_2003;

fn hash_name(name: &str) -> u64 {
    // FNV-1a, so each profile gets decorrelated streams for equal seeds.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn pick_kind(rng: &mut ScanRng, config: &GeneratorConfig) -> GateKind {
    if rng.gen_bool(config.unary_fraction) {
        if rng.gen_bool(0.8) {
            GateKind::Not
        } else {
            GateKind::Buf
        }
    } else {
        pick_kind_nonunary(rng, config)
    }
}

fn pick_kind_nonunary(rng: &mut ScanRng, config: &GeneratorConfig) -> GateKind {
    if rng.gen_bool(config.xor_fraction) {
        if rng.gen_bool(0.5) {
            GateKind::Xor
        } else {
            GateKind::Xnor
        }
    } else {
        match rng.gen_index(4) {
            0 => GateKind::And,
            1 => GateKind::Nand,
            2 => GateKind::Or,
            _ => GateKind::Nor,
        }
    }
}

/// One finished layer of candidate input nets, sorted by position.
struct Layer {
    nets: Vec<(f64, NetId)>,
    /// Bucket table over the positions: with one bucket per slot,
    /// `start[b]` is the first slot whose [`Layer::bucket`] is `b` or
    /// more (`nets.len()` if none is).
    start: Vec<u32>,
    /// Which slots some gate already reads (dangling-logic avoidance).
    read: ReadMarks,
}

impl Layer {
    /// Sorts `nets` by position and builds the bucket table. The sort is
    /// stable, so nets at equal positions keep their creation order.
    fn new(mut nets: Vec<(f64, NetId)>) -> Self {
        nets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let buckets = nets.len();
        let mut start = Vec::with_capacity(buckets + 1);
        for (slot, &(p, _)) in nets.iter().enumerate() {
            let b = Self::bucket(buckets, p);
            start.resize(start.len().max(b + 1), slot as u32);
        }
        start.resize(buckets + 1, nets.len() as u32);
        let read = ReadMarks::new(nets.len());
        Layer { nets, start, read }
    }

    /// The bucket of position `x` among `buckets` equal buckets over
    /// `[0, 1)`, clamped to `[0, buckets]`. It never decreases as `x`
    /// grows, which is all [`Layer::slots_below`] relies on.
    #[allow(clippy::cast_sign_loss)] // `as` saturates: x < 0 and NaN land in 0
    fn bucket(buckets: usize, x: f64) -> usize {
        ((x * buckets as f64) as usize).min(buckets)
    }

    /// Number of slots whose position is below `x` (`inclusive` false)
    /// or at most `x` (`inclusive` true): the slot `partition_point`
    /// returns for `p < x` or `p <= x`. Every slot before
    /// `start[bucket(x)]` lies in a lower bucket, so below `x`; the
    /// lookup steps forward from there.
    fn slots_below(&self, x: f64, inclusive: bool) -> usize {
        let below = |p: f64| if inclusive { p <= x } else { p < x };
        let mut slot = self.start[Self::bucket(self.nets.len(), x)] as usize;
        while slot < self.nets.len() && below(self.nets[slot].0) {
            slot += 1;
        }
        slot
    }
}

/// A net in the accumulated layers: `(layer, slot)` in position order.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
struct NetRef {
    layer: usize,
    slot: usize,
}

/// A layer's share of the current window: the first slot of its range
/// and the sizes of both pools in the range, less the nets already
/// chosen.
#[derive(Clone, Copy)]
struct LayerWindow {
    lo: usize,
    unread: usize,
    read: usize,
}

impl LayerWindow {
    fn size(&mut self, pool: Pool) -> &mut usize {
        match pool {
            Pool::Unread => &mut self.unread,
            Pool::Read => &mut self.read,
        }
    }
}

/// Input selection state: the accumulated layers plus scratch buffers
/// reused across picks.
struct Picker {
    locality: f64,
    layers: Vec<Layer>,
    windows: Vec<LayerWindow>,
    chosen: Vec<NetRef>,
}

impl Picker {
    fn new(locality: f64) -> Self {
        Picker {
            locality,
            layers: Vec::new(),
            windows: Vec::new(),
            chosen: Vec::new(),
        }
    }

    /// Appends a layer of `(position, net)` pairs.
    fn push_layer(&mut self, nets: Vec<(f64, NetId)>) {
        self.layers.push(Layer::new(nets));
    }

    /// Slots of the already-chosen nets that lie in `layer`.
    fn chosen_in(chosen: &[NetRef], layer: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        chosen
            .iter()
            .filter(move |c| c.layer == layer)
            .map(|c| c.slot)
    }

    /// Sets every layer's slot range to the nets within `window` of
    /// `pos`, and its pool sizes to the range's members that are not
    /// chosen yet.
    fn set_window(&mut self, pos: f64, window: f64) {
        let chosen = &self.chosen;
        self.windows.clear();
        self.windows
            .extend(self.layers.iter().enumerate().map(|(l, layer)| {
                let lo = layer.slots_below(pos - window, false);
                let hi = layer.slots_below(pos + window, true);
                let (unread, read) = layer.read.counts(lo, hi, Self::chosen_in(chosen, l));
                LayerWindow { lo, unread, read }
            }));
    }

    /// Picks `fanin` distinct nets from the accumulated layers,
    /// preferring nets whose position lies within `locality` of `pos`.
    /// The window is widened geometrically until enough candidates
    /// exist. Among the window's candidates, nets that are not yet read
    /// by any gate are preferred, which keeps the dangling-logic
    /// fraction (and hence the unobservable-fault fraction) low.
    ///
    /// The pools are the window's nets in layer order, then position
    /// order, minus the nets already chosen for this gate; a pick is a
    /// uniform index into the chosen pool. Each pick starts from the
    /// `locality` window. The layers' slot ranges and pool sizes are
    /// found once per window width, so a gate pays for them once unless
    /// a pick widens its window; a pick removes its net from the drawn
    /// pool, so it lowers that pool's size by exactly one. The order of
    /// the `rng` draws is part of the pinned output (see the module
    /// docs).
    fn pick_inputs(&mut self, rng: &mut ScanRng, pos: f64, fanin: usize) -> Vec<NetId> {
        self.chosen.clear();
        let mut window = self.locality;
        let mut widened = false;
        self.set_window(pos, window);
        while self.chosen.len() < fanin {
            let (unread, read) = self
                .windows
                .iter()
                .fold((0, 0), |(u, r), share| (u + share.unread, r + share.read));
            // Prefer unread nets most of the time; mixing in some reuse
            // keeps fanout (and therefore branch faults) realistic.
            let (pool, size) = if unread > 0 && (read == 0 || rng.gen_bool(0.8)) {
                (Pool::Unread, unread)
            } else {
                (Pool::Read, read)
            };
            if size == 0 {
                window *= 2.0;
                widened = true;
                if window > 1.0 {
                    // Degenerate (shouldn't happen: sources always exist);
                    // fall back to any net from the first layer, without
                    // marking it read.
                    let any = NetRef {
                        layer: 0,
                        slot: rng.gen_index(self.layers[0].nets.len()),
                    };
                    if !self.chosen.contains(&any) {
                        self.chosen.push(any);
                    }
                }
                self.set_window(pos, window);
                continue;
            }
            let mut k = rng.gen_index(size);
            for (l, share) in self.windows.iter_mut().enumerate() {
                let members = share.size(pool);
                if k < *members {
                    *members -= 1;
                    let read = &mut self.layers[l].read;
                    let slot = read.select(share.lo, k, pool, &Self::chosen_in(&self.chosen, l));
                    read.mark(slot);
                    self.chosen.push(NetRef { layer: l, slot });
                    break;
                }
                k -= *members;
            }
            if widened {
                window = self.locality;
                widened = false;
                self.set_window(pos, window);
            }
        }
        self.chosen
            .iter()
            .map(|c| self.layers[c.layer].nets[c.slot].1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use scan_rng::testkit::Runner;

    use super::*;

    #[test]
    fn profiles_cover_the_paper_circuits() {
        for name in ["s953", "s838", "s5378"].iter().chain(SIX_LARGEST.iter()) {
            assert!(profile(name).is_some(), "missing profile {name}");
        }
    }

    #[test]
    fn generated_interface_matches_profile() {
        let p = profile("s953").unwrap();
        let n = generate(p, 7);
        assert_eq!(n.num_inputs(), p.inputs);
        assert_eq!(n.num_outputs(), p.outputs);
        assert_eq!(n.num_dffs(), p.dffs);
        // Gate count is approximate but close (hookups may slightly
        // exceed the cloud budget on tiny profiles).
        let got = n.num_gates() as f64;
        let want = p.gates as f64;
        assert!(
            (got - want).abs() / want < 0.15,
            "gate count {got} too far from {want}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let p = profile("s386").unwrap();
        let a = generate(p, 42).to_bench_string();
        let b = generate(p, 42).to_bench_string();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = profile("s386").unwrap();
        let a = generate(p, 1).to_bench_string();
        let b = generate(p, 2).to_bench_string();
        assert_ne!(a, b);
    }

    #[test]
    fn combinational_iscas85_profiles_generate() {
        let p = profile("c880").unwrap();
        let n = generate(p, 2);
        assert_eq!(n.num_dffs(), 0);
        assert_eq!(n.num_inputs(), 60);
        assert_eq!(n.num_outputs(), 26);
        assert!(n.num_gates() > 100);
    }

    #[test]
    fn benchmark_returns_real_s27() {
        let n = benchmark("s27");
        assert_eq!(n.num_gates(), 10);
        assert!(n.find_net("G17").is_some());
    }

    #[test]
    fn natural_scan_len_matches_the_built_view() {
        let names = ISCAS89_PROFILES.iter().chain(ISCAS85_PROFILES);
        for name in names.map(|p| p.name) {
            let view = crate::ScanView::natural(&benchmark(name), true);
            assert_eq!(natural_scan_len(name), Some(view.len()), "{name}");
        }
        assert_eq!(natural_scan_len("s999999"), None);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn benchmark_rejects_unknown_names() {
        let _ = benchmark("s999999");
    }

    #[test]
    fn bucket_lookup_matches_partition_point() {
        Runner::new(512).run("bucket_lookup_matches_partition_point", |g| {
            // Positions on a grid of 1/(2 len) steps: duplicates are
            // common, and every other grid point is a bucket edge b/len.
            let len = g.usize("len", 0, 200);
            let grid = 2 * len.max(1);
            let nets: Vec<(f64, NetId)> = g
                .vec("slots", len, len, |r| r.gen_index(grid))
                .into_iter()
                .enumerate()
                .map(|(i, j)| (j as f64 / grid as f64, NetId(i as u32)))
                .collect();
            let layer = Layer::new(nets);
            for _ in 0..16 {
                // Window centres on and off the grid; half-widths that
                // push `pos ± window` below 0 and above 1.
                let pos = if g.bool("on_grid") {
                    g.usize("pos_grid", 0, grid) as f64 / grid as f64
                } else {
                    g.f64("pos", 0.0, 1.0)
                };
                let window = g.pick("window", &[0.0, 1e-4, 0.06, 0.5, 1.5, 4.0]);
                for x in [pos - window, pos, pos + window] {
                    let below = layer.nets.partition_point(|(p, _)| *p < x);
                    let at_most = layer.nets.partition_point(|(p, _)| *p <= x);
                    assert_eq!(layer.slots_below(x, false), below, "p < {x}");
                    assert_eq!(layer.slots_below(x, true), at_most, "p <= {x}");
                }
            }
        });
    }

    #[test]
    fn medium_profile_generates_quickly_and_validates() {
        let p = profile("s5378").unwrap();
        let n = generate(p, 3);
        assert_eq!(n.num_dffs(), 179);
        assert!(n.depth() >= 2);
    }
}
