//! Per-layer "already read" flags with O(log n) window counts and
//! k-th-member selection, for the circuit generator's input picks.
//!
//! The generator splits every positional window into two pools — nets
//! no gate reads yet ([`Pool::Unread`]) and nets some gate already
//! reads ([`Pool::Read`]) — and draws a uniform member of one pool,
//! skipping the few nets the current gate has already chosen. A
//! Fenwick (binary indexed) tree over the read flags answers both the
//! pool sizes of a `[lo, hi)` slot range and the position of the k-th
//! pool member in O(log n).

/// Which side of the read/unread split a pick draws from.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub(crate) enum Pool {
    /// Slots not yet read by any gate.
    Unread,
    /// Slots already read by at least one gate.
    Read,
}

/// Read flags over the slots of one sorted layer, with a Fenwick tree
/// of their prefix counts.
#[derive(Clone, Debug)]
pub(crate) struct ReadMarks {
    read: Vec<bool>,
    /// 1-based Fenwick tree: `tree[i]` counts the read slots in
    /// `[i - lowbit(i), i)` (0-based slot numbering).
    tree: Vec<usize>,
}

impl ReadMarks {
    /// `len` slots, none read.
    pub(crate) fn new(len: usize) -> Self {
        ReadMarks {
            read: vec![false; len],
            tree: vec![0; len + 1],
        }
    }

    /// Whether `slot` belongs to `pool`.
    fn in_pool(&self, slot: usize, pool: Pool) -> bool {
        self.read[slot] == (pool == Pool::Read)
    }

    /// Marks `slot` read; marking an already-read slot changes nothing.
    pub(crate) fn mark(&mut self, slot: usize) {
        if std::mem::replace(&mut self.read[slot], true) {
            return;
        }
        let mut i = slot + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of read slots in `[0, slot)`.
    fn read_before(&self, slot: usize) -> usize {
        let mut read = 0;
        let mut i = slot;
        while i > 0 {
            read += self.tree[i];
            i &= i - 1;
        }
        read
    }

    /// Number of `pool` members in `[0, slot)`.
    fn rank(&self, slot: usize, pool: Pool) -> usize {
        let read = self.read_before(slot);
        match pool {
            Pool::Read => read,
            Pool::Unread => slot - read,
        }
    }

    /// Sizes of both pools in `[lo, hi)`, as `(unread, read)`, leaving
    /// out the slots in `excluded` (distinct slots; any outside the
    /// range are ignored). Two prefix walks serve both pools.
    pub(crate) fn counts(
        &self,
        lo: usize,
        hi: usize,
        excluded: impl Iterator<Item = usize>,
    ) -> (usize, usize) {
        let mut read = self.read_before(hi) - self.read_before(lo);
        let mut unread = hi - lo - read;
        for e in excluded.filter(|&e| lo <= e && e < hi) {
            if self.read[e] {
                read -= 1;
            } else {
                unread -= 1;
            }
        }
        (unread, read)
    }

    /// The slot of the `k`-th (0-based) `pool` member at or after `lo`
    /// that is not in `excluded` (distinct slots). The caller
    /// guarantees such a member exists.
    pub(crate) fn select(
        &self,
        lo: usize,
        k: usize,
        pool: Pool,
        excluded: &(impl Iterator<Item = usize> + Clone),
    ) -> usize {
        // The target's pool rank r is the least fixed point of
        // r = base + k + #{excluded members ranked in [base, r]}:
        // iterate up from r = base + k, one step per skipped member.
        let base = self.rank(lo, pool);
        let mut target = base + k;
        loop {
            let skipped = excluded
                .clone()
                .filter(|&e| lo <= e && self.in_pool(e, pool) && self.rank(e, pool) <= target)
                .count();
            if base + k + skipped == target {
                return self.nth(target, pool);
            }
            target = base + k + skipped;
        }
    }

    /// The slot of the `r`-th (0-based) `pool` member overall.
    fn nth(&self, r: usize, pool: Pool) -> usize {
        // Binary descent: grow `at` while the pool count in
        // `[at, at + step)` still fits in the remaining rank.
        let mut at = 0;
        let mut remaining = r;
        let mut step = self.read.len().checked_next_power_of_two().unwrap_or(0);
        while step > 0 {
            let next = at + step;
            if next < self.tree.len() {
                let read = self.tree[next];
                let members = match pool {
                    Pool::Read => read,
                    Pool::Unread => step - read,
                };
                if members <= remaining {
                    at = next;
                    remaining -= members;
                }
            }
            step >>= 1;
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use scan_rng::testkit::Runner;

    use super::{Pool, ReadMarks};

    /// Reference oracle: walk `[lo, hi)` in slot order, drop excluded
    /// slots, keep the pool's members.
    fn scan_pool(
        read: &[bool],
        lo: usize,
        hi: usize,
        pool: Pool,
        excluded: &[usize],
    ) -> Vec<usize> {
        (lo..hi)
            .filter(|s| !excluded.contains(s))
            .filter(|&s| read[s] == (pool == Pool::Read))
            .collect()
    }

    #[test]
    fn count_and_select_match_the_window_scan() {
        Runner::new(512).run("count_and_select_match_the_window_scan", |g| {
            let len = g.usize("len", 1, 80);
            let marks = g.vec("marks", 0, 120, |r| r.gen_index(len));
            let lo = g.usize("lo", 0, len);
            let hi = g.usize("hi", lo, len);
            let pool = if g.bool("read_pool") {
                Pool::Read
            } else {
                Pool::Unread
            };
            let excluded: Vec<usize> = g
                .set("excluded", 0, 2, |r| r.gen_index(len))
                .into_iter()
                .collect();

            let mut tree = ReadMarks::new(len);
            let mut read = vec![false; len];
            for &m in &marks {
                tree.mark(m);
                read[m] = true;
            }
            for (slot, &was_read) in read.iter().enumerate() {
                assert_eq!(tree.in_pool(slot, Pool::Read), was_read);
            }

            let counts = tree.counts(lo, hi, excluded.iter().copied());
            let unread = scan_pool(&read, lo, hi, Pool::Unread, &excluded);
            let read_pool = scan_pool(&read, lo, hi, Pool::Read, &excluded);
            assert_eq!(counts, (unread.len(), read_pool.len()), "pool sizes");
            let oracle = if pool == Pool::Read {
                read_pool
            } else {
                unread
            };
            for (k, &want) in oracle.iter().enumerate() {
                assert_eq!(
                    tree.select(lo, k, pool, &excluded.iter().copied()),
                    want,
                    "member {k}"
                );
            }
        });
    }

    #[test]
    fn marking_twice_counts_once() {
        let mut tree = ReadMarks::new(5);
        tree.mark(3);
        tree.mark(3);
        assert_eq!(tree.rank(5, Pool::Read), 1);
        assert_eq!(tree.rank(5, Pool::Unread), 4);
        assert_eq!(tree.select(0, 3, Pool::Unread, &std::iter::empty()), 4);
    }
}
