//! Property-based tests for the netlist substrate, on the
//! in-workspace shrink-free harness.

use scan_rng::testkit::Runner;

use scan_netlist::generate::{generate_with, profile, GeneratorConfig};
use scan_netlist::{BitSet, GateKind, Netlist, ScanView};

/// BitSet behaves like a reference HashSet under a random op sequence.
#[test]
fn bitset_matches_hashset_model() {
    Runner::new(256).run("bitset_matches_hashset_model", |g| {
        let ops = g.vec("ops", 0, 299, |r| (r.gen_index(200), r.next_bool()));
        let mut set = BitSet::new(200);
        let mut model = std::collections::HashSet::new();
        for (idx, insert) in ops {
            if insert {
                assert_eq!(set.insert(idx), model.insert(idx));
            } else {
                assert_eq!(set.remove(idx), model.remove(&idx));
            }
        }
        assert_eq!(set.len(), model.len());
        let mut items: Vec<usize> = model.into_iter().collect();
        items.sort_unstable();
        assert_eq!(set.iter().collect::<Vec<_>>(), items);
    });
}

/// Set algebra laws hold for random member sets.
#[test]
fn bitset_algebra_laws() {
    Runner::new(256).run("bitset_algebra_laws", |g| {
        let a = g.set("a", 0, 63, |r| r.gen_index(128));
        let b = g.set("b", 0, 63, |r| r.gen_index(128));
        let mk = |s: &std::collections::BTreeSet<usize>| {
            let mut set = BitSet::new(128);
            for &i in s {
                set.insert(i);
            }
            set
        };
        let (sa, sb) = (mk(&a), mk(&b));
        // Union is commutative.
        let mut u1 = sa.clone();
        u1.union_with(&sb);
        let mut u2 = sb.clone();
        u2.union_with(&sa);
        assert_eq!(&u1, &u2);
        // Intersection subset of both.
        let mut i1 = sa.clone();
        i1.intersect_with(&sb);
        assert!(i1.is_subset(&sa));
        assert!(i1.is_subset(&sb));
        // Difference disjoint from subtrahend.
        let mut d = sa.clone();
        d.difference_with(&sb);
        assert!(!d.intersects(&sb) || d.is_empty());
        // |A∪B| = |A| + |B| − |A∩B|.
        assert_eq!(u1.len() + i1.len(), sa.len() + sb.len());
    });
}

/// Gate evaluation over packed words agrees with the boolean model on
/// every lane.
#[test]
fn eval_words_matches_bool_model() {
    Runner::new(256).run("eval_words_matches_bool_model", |g| {
        let kind_idx = g.usize("kind_idx", 0, 7);
        let inputs = g.vec("inputs", 1, 3, scan_rng::ScanRng::next_u64);
        let lane = g.usize("lane", 0, 63);
        let kind = GateKind::ALL[kind_idx];
        let inputs = if kind.is_unary() {
            vec![inputs[0]]
        } else if inputs.len() < 2 {
            vec![inputs[0], inputs[0]]
        } else {
            inputs
        };
        let word = kind.eval_words(&inputs);
        let bools: Vec<bool> = inputs.iter().map(|w| w >> lane & 1 != 0).collect();
        assert_eq!(word >> lane & 1 != 0, kind.eval_bools(&bools));
    });
}

/// Generated circuits always roundtrip through .bench text.
#[test]
fn generated_circuits_roundtrip() {
    Runner::new(50).run("generated_circuits_roundtrip", |g| {
        let seed = g.u64("seed", 0, 49);
        let p = profile("s386").unwrap();
        let n = generate_with(p, seed, &GeneratorConfig::default());
        let text = n.to_bench_string();
        let n2 = Netlist::from_bench("rt", &text).unwrap();
        assert_eq!(n.interface_stats(), n2.interface_stats());
        assert_eq!(n.depth(), n2.depth());
    });
}

/// Generator locality knob: views stay complete and every observed net
/// is driven, for any seed.
#[test]
fn generator_views_complete() {
    Runner::new(30).run("generator_views_complete", |g| {
        let seed = g.u64("seed", 0, 29);
        let p = profile("s298").unwrap();
        let n = generate_with(p, seed, &GeneratorConfig::default());
        let view = ScanView::natural(&n, true);
        assert_eq!(view.len(), p.dffs + p.outputs);
        // Every observed net exists and is driven (observed_net panics
        // otherwise).
        for pos in 0..view.len() {
            let _ = view.observed_net(&n, pos);
        }
    });
}

/// `fanout_count` equals a brute-force count of the gate input pins
/// reading each net, on generated circuits with one extra gate that
/// reads a net on two pins.
#[test]
fn fanout_count_matches_pin_count() {
    Runner::new(40).run("fanout_count_matches_pin_count", |g| {
        let name = g.pick("profile", &["s298", "s386", "c432"]);
        let seed = g.u64("seed", 0, 39);
        let n = generate_with(profile(name).unwrap(), seed, &GeneratorConfig::default());
        let text = n.to_bench_string();
        let shared = text
            .lines()
            .find_map(|l| l.strip_prefix("INPUT(")?.strip_suffix(')'))
            .expect("generated circuits have inputs");
        let text = format!("{text}OUTPUT(twice)\ntwice = XOR({shared}, {shared})\n");
        let n = Netlist::from_bench(name, &text).unwrap();
        let twice = n.find_net("twice").unwrap();
        let reader = n.gates().iter().find(|gate| gate.output == twice).unwrap();
        assert_eq!(reader.inputs[0], reader.inputs[1]);
        for net in n.net_ids() {
            let pins = n
                .gates()
                .iter()
                .flat_map(|gate| &gate.inputs)
                .filter(|&&input| input == net)
                .count();
            assert_eq!(n.fanout_count(net), pins, "{name} net {}", n.net_name(net));
        }
    });
}
