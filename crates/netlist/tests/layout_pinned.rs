//! Pinned-output regression tests for the netlist's stored layout.
//!
//! `generate_pinned.rs` pins the `.bench` text of generated circuits,
//! which a change to how a netlist *stores* its fanout lists, names or
//! levels would not necessarily move. These tests pin what the storage
//! answers: the FNV-1a digest of every net's `fanout` list,
//! `fanout_count` and `net_name`, of `topo_order` and every
//! `gate_level`, and check that `find_net` maps each sampled name back
//! to its net. The circuits are the six largest ISCAS-89 stand-ins, the
//! parsed `s27`, two profiles under each of `generate_pinned.rs`'s
//! widening configurations, and a hand-built netlist with a gate that
//! reads one net on two pins.

use scan_netlist::generate::{self, generate_with, profile, GeneratorConfig, SIX_LARGEST};
use scan_netlist::{bench, GateKind, NetId, Netlist, NetlistBuilder};

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

/// `[fanout lists, fanout counts, net names, topo order and levels]`.
type Digests = [u64; 4];

fn digests(netlist: &Netlist) -> Digests {
    let (mut fanout, mut count, mut names, mut topo) =
        (Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new());
    for net in netlist.net_ids() {
        let gates = netlist.fanout(net);
        fanout.word(gates.len() as u64);
        for g in gates {
            fanout.word(g.index() as u64);
        }
        count.word(netlist.fanout_count(net) as u64);
        names.bytes(netlist.net_name(net).as_bytes());
        names.bytes(b"\n");
    }
    for &g in netlist.topo_order() {
        topo.word(g.index() as u64);
    }
    for g in netlist.gate_ids() {
        topo.word(u64::from(netlist.gate_level(g)));
    }
    [fanout.0, count.0, names.0, topo.0]
}

/// `find_net` returns each sampled net for its own name (every net of
/// a small netlist, every 97th plus the last of a large one), and
/// `None` for a name no net has.
fn check_find_net(name: &str, netlist: &Netlist) {
    let nets: Vec<NetId> = netlist.net_ids().collect();
    let step = if nets.len() <= 200 { 1 } else { 97 };
    for &net in nets.iter().step_by(step).chain(nets.last()) {
        assert_eq!(
            netlist.find_net(netlist.net_name(net)),
            Some(net),
            "{name}: find_net round trip of `{}`",
            netlist.net_name(net)
        );
    }
    assert_eq!(netlist.find_net("no such net"), None, "{name}");
}

/// `generate_pinned.rs`'s widening configurations: a `1e-4` locality
/// window and fan-in up to 5, one layer or twelve.
fn widening_configs() -> [GeneratorConfig; 2] {
    [1, 12].map(|levels| GeneratorConfig {
        locality: 1e-4,
        levels,
        max_fanin: 5,
        ..GeneratorConfig::default()
    })
}

/// A gate reading `a` on both pins: `a` lists that gate once in its
/// fanout but counts two pins.
fn double_pin() -> Netlist {
    let mut b = NetlistBuilder::new("double_pin");
    b.input("a");
    b.input("b");
    b.dff("q", "d");
    b.gate(GateKind::Xor, "x", &["a", "a"]);
    b.gate(GateKind::And, "y", &["x", "b", "x"]);
    b.gate(GateKind::Nor, "d", &["y", "q", "a"]);
    b.output("y");
    b.output("d");
    b.finish().expect("valid netlist")
}

fn circuits() -> Vec<(String, Netlist)> {
    let mut out: Vec<(String, Netlist)> = SIX_LARGEST
        .iter()
        .map(|&name| (name.to_owned(), generate::benchmark(name)))
        .collect();
    out.push(("s27".to_owned(), bench::s27()));
    for (name, seed) in [("s953", 1), ("s5378", generate::DEFAULT_BENCHMARK_SEED)] {
        let p = profile(name).expect("known profile");
        for config in widening_configs() {
            out.push((
                format!("{name}/levels{}", config.levels),
                generate_with(p, seed, &config),
            ));
        }
    }
    out.push(("double_pin".to_owned(), double_pin()));
    out
}

#[test]
fn double_pin_gate_is_listed_once_and_counted_twice() {
    let n = double_pin();
    let a = n.find_net("a").unwrap();
    let x = n.find_net("x").unwrap();
    assert_eq!(n.fanout(a).len(), 2, "the XOR once, the NOR once");
    assert_eq!(n.fanout_count(a), 3);
    assert_eq!(n.fanout(x).len(), 1);
    assert_eq!(n.fanout_count(x), 2);
}

#[test]
fn layouts_are_pinned() {
    let got: Vec<(String, Digests)> = circuits()
        .into_iter()
        .map(|(name, netlist)| {
            check_find_net(&name, &netlist);
            let d = digests(&netlist);
            (name, d)
        })
        .collect();
    let want: Vec<(String, Digests)> = PINS.iter().map(|(n, d)| ((*n).to_owned(), *d)).collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(n, d)| {
                format!(
                    "    (\"{n}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                    d[0], d[1], d[2], d[3]
                )
            })
            .collect();
        panic!("netlist layout moved; the current table is:\n{table}");
    }
}

/// `(circuit, [fanout, fanout_count, net_name, topo + levels])`.
#[rustfmt::skip]
const PINS: &[(&str, Digests)] = &[
    ("s9234", [0xcb9f2a567e96d19b, 0xdffdf8b8e315e849, 0xed51ce5f4098c87b, 0x4f4be34c3af35064]),
    ("s13207", [0x8c5c787645f34fff, 0xa4800cb19000e043, 0x7eeb7a23311cde25, 0x849a860b19f91934]),
    ("s15850", [0x6fb630a53a967fda, 0xa253cb5256ad0d3d, 0x4acfd3521c25d9e4, 0x69c44f9ae57e3478]),
    ("s35932", [0x65de096d3ffb9465, 0xfa639aa456899a20, 0x9e03abf59197651b, 0xfc1caedd1fa0f3a6]),
    ("s38417", [0x3e9d35983dd6a7c7, 0xfc1efa277bfaca81, 0x327218bc44047a36, 0x80889e0f1b1f99cc]),
    ("s38584", [0x38f62a10d1b1057e, 0x21cd42b8145e31d0, 0xfb50ee5310130291, 0xda43c503c90f495b]),
    ("s27", [0x41fbe488d5b9e664, 0x90e8c7b6ef47c5e5, 0x726d25bcac8390f7, 0x0b7723a4f3074f25]),
    ("s953/levels1", [0x3ec7a9a82a485b9c, 0xe76984a5238d7f86, 0x7515c99d3fe830df, 0x4ace29a39f6bfa9b]),
    ("s953/levels12", [0xffc0ac0ef5e1eb1a, 0xfcf0d71410fc1e66, 0x7515c99d3fe830df, 0x52dd27dd4f202908]),
    ("s5378/levels1", [0x719507349d4c2134, 0x74bc640975921509, 0x762a39552bb8c7dc, 0xafa619c0435c8af9]),
    ("s5378/levels12", [0x4da840a0d10a8cce, 0xf592bbf37a381fbe, 0x762a39552bb8c7dc, 0xcf03bfc49ee0fafc]),
    ("double_pin", [0x5fff193d0d1e31c5, 0x03d9305225a1c365, 0x057a3a06fab9fe0e, 0xb45936119221c146]),
];
