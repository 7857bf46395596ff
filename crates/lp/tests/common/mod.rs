//! Test helpers shared by the factorization test binaries. Each binary uses
//! a different subset of them.
#![allow(dead_code)]

use tvnep_lp::sparse::CscMatrix;

/// Deterministic splitmix64, the repo-wide test RNG.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A basis shaped like the TVNEP ones: `−e_i` slack columns on four fifths
/// of the rows; on the rest, structural columns that also touch a few slack
/// rows and chain into each other (reaches of dozens of positions, which the
/// `U` passes follow through their pending bitsets), with a few 2 × 2
/// blocks and one dense 4 × 4 block that put entries into `L`.
pub fn slack_heavy_basis(rng: &mut Rng, m: usize) -> (CscMatrix, Vec<usize>) {
    // Off-diagonal values stay below the diagonal's: the structural block
    // is diagonally dominant, so the basis is nonsingular.
    const VALS: [f64; 6] = [0.5, -0.5, 1.0, -1.0, 2.0, -2.0];
    const DIAG: [f64; 3] = [4.0, -4.0, 8.0];
    let first = m - m / 5;
    let mut cols = CscMatrix::empty(m);
    for i in 0..first {
        cols.push_column(&[(i, -1.0)]);
    }
    for row in first..m {
        let mut col = vec![(row, DIAG[rng.range(3)])];
        if row > first {
            col.push((row - 1, VALS[rng.range(4)]));
        }
        if row % 7 == 3 && row + 1 < m {
            col.push((row + 1, VALS[rng.range(4)]));
        }
        if row + 4 >= m {
            // The last four rows form a dense block: chains inside `L`.
            col.extend((m - 4..m).map(|r| (r, VALS[rng.range(4)])));
        }
        for _ in 0..2 {
            col.push((rng.range(first), VALS[rng.range(6)]));
        }
        col.sort_unstable_by_key(|&(r, _)| r);
        col.dedup_by_key(|e| e.0);
        cols.push_column(&col);
    }
    (cols, (0..m).collect())
}
