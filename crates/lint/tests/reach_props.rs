//! Property tests for the reachability engine (`scan_lint::reach`)
//! against a naive fixed-point oracle, over randomly generated call
//! graphs — cycles, self-loops, duplicate edges, and masked
//! (`#[cfg(test)]`) nodes included. Draws flow through the pinned
//! `scan_rng::testkit` streams, so a failure replays exactly.

use scan_lint::reach;
use scan_rng::testkit::{Gen, Runner};

/// A random directed graph as an adjacency list plus a mask vector.
fn random_graph(gen: &mut Gen) -> (Vec<Vec<usize>>, Vec<bool>) {
    let n = gen.usize("nodes", 1, 24);
    let mut adj = vec![Vec::new(); n];
    let edges = gen.usize("edges", 0, 3 * n);
    for _ in 0..edges {
        let from = gen.usize("from", 0, n - 1);
        let to = gen.usize("to", 0, n - 1);
        adj[from].push(to);
    }
    let masked = (0..n).map(|_| gen.bool("masked")).collect();
    (adj, masked)
}

/// Naive oracle: iterate "reachable ∪ successors(reachable)" to a fixed
/// point, never entering masked nodes. O(n·e), no parent pointers — just
/// the visited set.
fn oracle_visited(adj: &[Vec<usize>], roots: &[usize], masked: &[bool]) -> Vec<bool> {
    let n = adj.len();
    let mut visited = vec![false; n];
    for &r in roots {
        if r < n && !masked[r] {
            visited[r] = true;
        }
    }
    loop {
        let mut changed = false;
        for u in 0..n {
            if !visited[u] {
                continue;
            }
            for &v in &adj[u] {
                if v < n && !masked[v] && !visited[v] {
                    visited[v] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return visited;
        }
    }
}

#[test]
fn bfs_visited_set_matches_naive_fixed_point() {
    Runner::new(300)
        .seed(0x5ca9_11a7)
        .run("bfs_vs_oracle", |gen| {
            let (adj, masked) = random_graph(gen);
            let n = adj.len();
            let root_count = gen.usize("roots", 0, n.min(4));
            let roots: Vec<usize> = (0..root_count)
                .map(|_| gen.usize("root", 0, n - 1))
                .collect();
            let r = reach::bfs(&adj, &roots, &masked);
            let expect = oracle_visited(&adj, &roots, &masked);
            assert_eq!(
                r.visited, expect,
                "adj={adj:?} roots={roots:?} masked={masked:?}"
            );
        });
}

#[test]
fn witness_paths_are_real_unmasked_paths_from_a_root() {
    Runner::new(300)
        .seed(0x717e55)
        .run("witness_validity", |gen| {
            let (adj, masked) = random_graph(gen);
            let n = adj.len();
            let roots: Vec<usize> = (0..gen.usize("roots", 1, n.min(3)))
                .map(|_| gen.usize("root", 0, n - 1))
                .collect();
            let r = reach::bfs(&adj, &roots, &masked);
            for node in 0..n {
                let path = r.witness(node);
                if !r.visited[node] {
                    assert!(
                        path.is_empty(),
                        "unreached node {node} has witness {path:?}"
                    );
                    continue;
                }
                // Starts at a live root, ends at the node, every hop is a
                // real edge, no hop is masked.
                assert_eq!(*path.last().unwrap(), node);
                assert!(
                    roots.contains(&path[0]),
                    "witness start {} not a root",
                    path[0]
                );
                for pair in path.windows(2) {
                    assert!(
                        adj[pair[0]].contains(&pair[1]),
                        "witness hop {}->{} is not an edge",
                        pair[0],
                        pair[1]
                    );
                }
                assert!(path.iter().all(|&p| !masked[p]), "masked hop in {path:?}");
            }
        });
}

#[test]
fn can_reach_agrees_with_oracle_on_reversed_graph() {
    Runner::new(300)
        .seed(0xcafe)
        .run("can_reach_vs_oracle", |gen| {
            let (adj, masked) = random_graph(gen);
            let n = adj.len();
            let targets: Vec<usize> = (0..gen.usize("targets", 0, n.min(4)))
                .map(|_| gen.usize("target", 0, n - 1))
                .collect();
            let got = reach::can_reach(&adj, &targets, &masked);
            let expect = oracle_visited(&reach::reverse(&adj), &targets, &masked);
            assert_eq!(
                got, expect,
                "adj={adj:?} targets={targets:?} masked={masked:?}"
            );
        });
}
