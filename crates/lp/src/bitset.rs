//! A set of indices below a fixed bound, one bit per index.
//!
//! The hypersparse kernels use it two ways: as the pending queue of a
//! triangular solve (members are visited in index order while new members
//! join only above — or only below — the one being visited), and as a
//! membership mark that turns an unordered list of touched positions into
//! an ascending one. A query or a drain reads `⌈n/64⌉` words at most.

#[derive(Debug, Clone, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Sizes the set for indices below `n`, keeping its members; a set that
    /// is empty stays empty.
    pub(crate) fn resize(&mut self, n: usize) {
        self.words.resize(n.div_ceil(64), 0);
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// The smallest member `≥ from`.
    pub(crate) fn first_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.words.get(w)? & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            word = *self.words.get(w)?;
        }
    }

    /// The largest member `< below`.
    pub(crate) fn last_below(&self, below: usize) -> Option<usize> {
        let top = below.checked_sub(1)?;
        let mut w = top / 64;
        let mut word = self.words[w] & (!0u64 >> (63 - top % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
            w = w.checked_sub(1)?;
            word = self.words[w];
        }
    }

    /// Calls `f` on every member in ascending order and empties the set.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(usize)) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Heap bytes held (capacity, not length).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_match_a_sorted_list() {
        let mut set = BitSet::default();
        set.resize(200);
        let members = [0, 5, 63, 64, 65, 127, 128, 199];
        for &i in &members {
            set.insert(i);
        }
        for from in 0..=200 {
            assert_eq!(
                set.first_from(from),
                members.iter().copied().find(|&i| i >= from),
                "first_from({from})"
            );
            assert_eq!(
                set.last_below(from),
                members.iter().rev().copied().find(|&i| i < from),
                "last_below({from})"
            );
        }
        let mut out = Vec::new();
        set.drain(|i| out.push(i));
        assert_eq!(out, members);
        assert_eq!(set.first_from(0), None);
        assert_eq!(set.last_below(200), None);
    }
}
