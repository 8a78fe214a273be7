//! Per-layer "already read" flags as a bit row, with window counts and
//! k-th-member selection, for the circuit generator's input picks.
//!
//! The generator splits every positional window into two pools — nets
//! no gate reads yet ([`Pool::Unread`]) and nets some gate already
//! reads ([`Pool::Read`]) — and draws a uniform member of one pool,
//! skipping the few nets the current gate has already chosen. One `u64`
//! holds the flags of 64 consecutive slots: a window's pool sizes are
//! popcounts over its words, and the k-th pool member is found by
//! scanning the words from the window's start. A default-configuration
//! window spans a few hundred slots at most, so both are a handful of
//! word operations.

/// Which side of the read/unread split a pick draws from.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub(crate) enum Pool {
    /// Slots not yet read by any gate.
    Unread,
    /// Slots already read by at least one gate.
    Read,
}

/// Read flags over the slots of one sorted layer, one bit per slot.
#[derive(Clone, Debug)]
pub(crate) struct ReadMarks {
    words: Vec<u64>,
}

impl ReadMarks {
    /// `len` slots, none read.
    pub(crate) fn new(len: usize) -> Self {
        ReadMarks {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Whether `slot` is read.
    fn is_read(&self, slot: usize) -> bool {
        self.words[slot / 64] >> (slot % 64) & 1 == 1
    }

    /// Marks `slot` read; marking an already-read slot changes nothing.
    pub(crate) fn mark(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    /// Number of read slots in `[lo, hi)`.
    fn read_in(&self, lo: usize, hi: usize) -> usize {
        if lo >= hi {
            return 0;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        let head = !0u64 << (lo % 64);
        let tail = !0u64 >> (63 - (hi - 1) % 64);
        if first == last {
            return (self.words[first] & head & tail).count_ones() as usize;
        }
        let middle: u32 = self.words[first + 1..last]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        ((self.words[first] & head).count_ones() + middle + (self.words[last] & tail).count_ones())
            as usize
    }

    /// Sizes of both pools in `[lo, hi)`, as `(unread, read)`, leaving
    /// out the slots in `excluded` (distinct slots; any outside the
    /// range are ignored).
    pub(crate) fn counts(
        &self,
        lo: usize,
        hi: usize,
        excluded: impl Iterator<Item = usize>,
    ) -> (usize, usize) {
        let mut read = self.read_in(lo, hi);
        let mut unread = hi - lo - read;
        for e in excluded.filter(|&e| lo <= e && e < hi) {
            if self.is_read(e) {
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
        // Scan the pool's bits word by word from `lo`, with the excluded
        // slots cleared, until the word holding the k-th member.
        let flip = match pool {
            Pool::Read => 0,
            Pool::Unread => !0,
        };
        let mut k = k;
        let mut word = lo / 64;
        let mut bits = (self.words[word] ^ flip) & (!0u64 << (lo % 64));
        loop {
            for e in excluded.clone().filter(|e| e / 64 == word) {
                bits &= !(1 << (e % 64));
            }
            let members = bits.count_ones() as usize;
            if k < members {
                for _ in 0..k {
                    bits &= bits - 1;
                }
                return word * 64 + bits.trailing_zeros() as usize;
            }
            k -= members;
            word += 1;
            bits = self.words[word] ^ flip;
        }
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
        // Rows up to 300 slots span five words, so windows start, end
        // and cross word boundaries at every offset.
        Runner::new(512).run("count_and_select_match_the_window_scan", |g| {
            let len = g.usize("len", 1, 300);
            let marks = g.vec("marks", 0, 400, |r| r.gen_index(len));
            let lo = g.usize("lo", 0, len);
            let hi = g.usize("hi", lo, len);
            let pool = if g.bool("read_pool") {
                Pool::Read
            } else {
                Pool::Unread
            };
            let excluded: Vec<usize> = g
                .set("excluded", 0, 4, |r| r.gen_index(len))
                .into_iter()
                .collect();

            let mut row = ReadMarks::new(len);
            let mut read = vec![false; len];
            for &m in &marks {
                row.mark(m);
                read[m] = true;
            }
            for (slot, &was_read) in read.iter().enumerate() {
                assert_eq!(row.is_read(slot), was_read);
            }

            let counts = row.counts(lo, hi, excluded.iter().copied());
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
                    row.select(lo, k, pool, &excluded.iter().copied()),
                    want,
                    "member {k}"
                );
            }
        });
    }

    #[test]
    fn marking_twice_counts_once() {
        let mut row = ReadMarks::new(5);
        row.mark(3);
        row.mark(3);
        assert_eq!(row.counts(0, 5, std::iter::empty()), (4, 1));
        assert_eq!(row.select(0, 3, Pool::Unread, &std::iter::empty()), 4);
    }
}
