//! Sparse LU basis factorization with Markowitz pivoting and an eta file.
//!
//! This module replaces the dense `m × m` basis inverse of the original
//! engine (DESIGN.md §2). The basis `B` — the columns of the constraint
//! matrix selected by the current basis header — is factorized as
//! `P B Q = L U` by right-looking sparse Gaussian elimination:
//!
//! * **Markowitz pivot selection.** At every elimination step the candidate
//!   pivot `(i, j)` minimizes the fill proxy `(r_i − 1)(c_j − 1)` where
//!   `r_i`/`c_j` are the active-submatrix row/column nonzero counts, searched
//!   over the sparsest few active columns. Those come from a count-bucket
//!   index (one bitset of active columns per count, after Suhl & Suhl's
//!   count-indexed column lists) kept current wherever a count changes: a
//!   step reads `⌈m/64⌉` words per bucket it visits, usually one or two,
//!   and a count change is two bit flips.
//! * **Flat elimination files and a per-column Markowitz cache.** The
//!   active submatrix lives in two flat files that one counting pass over
//!   the basis columns builds: the rows as sorted `(column, value)` lists
//!   and the columns as candidate-row lists, each list in a slot of its
//!   file, moving to the file's end with doubled room when it outgrows the
//!   slot. The files and the rest of the workspace are kept between calls,
//!   sized by the largest basis seen, so a refactorization allocates
//!   nothing once the first has sized them. Each candidate column caches
//!   its best admissible entry and is rescanned only when dirty: when its
//!   count changed, or one of its rows was retired or rewritten by an
//!   elimination. The search key
//!   `(score, −|v|, row, column)` is a total order, so the best of the
//!   per-column bests is the entry a full scan of the candidates picks.
//!   Most steps pivot on a column singleton and leave the other candidates
//!   clean, so a step usually rescans one column instead of four.
//! * **Threshold partial pivoting.** A candidate is numerically admissible
//!   only when `|a_ij| ≥ MARKOWITZ_TOL · max_i |a_ij|` within its column
//!   ([`MARKOWITZ_TOL`] = 0.1), which trades sparsity against growth.
//! * **Stored triangles.** `L` (unit lower) and `U` are stored column-wise
//!   in pivot order, and `U` once more by rows: each retiring pivot row is
//!   appended to the row-wise copy as it leaves the active submatrix, and
//!   the columns come from a counting-sort transpose of it. The columns
//!   serve FTRAN (`Bx = b`: `L`-forward, then
//!   `U`-backward, both pushing along columns) and the sweep form of BTRAN
//!   (`Bᵀy = c`: `Uᵀ`-forward pulling along `U`'s columns, then
//!   `Lᵀ`-backward); the rows let BTRAN's `Uᵀ` pass push instead.
//! * **Hypersparse solves** (Hall & McKinnon, "Hyper-sparsity in the
//!   revised simplex method and how to exploit it", COAP 2005). The simplex
//!   engine's right-hand sides — an entering column, a unit vector — reach
//!   few positions, so [`BasisFactor::ftran_sparse`] and
//!   [`BasisFactor::btran_sparse`] start from the right-hand side's
//!   nonzeros, walk `L` over its nonempty columns only, and drive the `U`
//!   pass from a bitset of pending pivot steps (highest first for FTRAN,
//!   lowest first for BTRAN). Only touched positions are written back, and
//!   the result's support comes back in ascending order. Every position
//!   receives its terms in the order of the plain sweep, so the nonzeros are
//!   bit-identical to it (a zero may differ in sign). When the factors are
//!   dense — more than `m/10` nonzeros in `L` — the plain sweep runs
//!   instead and reports every position as the support, so a dense solve
//!   costs what the sweep costs.
//! * **Sparse-eta product-form updates.** A basis exchange appends one eta
//!   vector built from the already-computed FTRAN spike ([`EtaFile`]); a
//!   pivot therefore costs work proportional to the spike's nonzeros. The
//!   eta file is replayed after (FTRAN) or before (BTRAN, transposed, in
//!   reverse) the LU solves, and the simplex bounds its fill at 8·m
//!   off-pivot nonzeros, past which it refactorizes early.
//!
//! [`BasisFactor`] bundles the two pieces plus a solve workspace and is the
//! only interface the simplex engine uses. The `U`-diagonal ratio
//! `max|u_kk| / min|u_kk|` of each factorization is kept as an
//! ill-conditioning proxy, read on demand through
//! [`BasisFactor::u_diag_ratio`] (it bounds `κ∞(B)` from below for the
//! unit-scaled TVNEP rows).

use crate::bitset::BitSet;
use crate::sparse::CscMatrix;

/// How many of the sparsest active columns the Markowitz search inspects per
/// elimination step before falling back to every active column. Suhl & Suhl
/// report tiny candidate sets lose almost nothing on LP bases; four keeps
/// selection O(candidates · column length) per step. The candidates are the
/// smallest `(count, column)` pairs, read from [`CountBuckets`].
const MARKOWITZ_CANDIDATES: usize = 4;

/// Threshold partial-pivoting relaxation of the Markowitz search: an entry
/// is admissible only when `|a_ij| ≥ MARKOWITZ_TOL · max_i |a_ij|` within
/// its column. Smaller values would favor sparsity over numerical growth.
const MARKOWITZ_TOL: f64 = 0.1;

/// Pivots smaller than this are never numerically admissible, matching the
/// dense factorization's singularity cutoff.
const ABS_PIVOT_MIN: f64 = 1e-12;

/// Factors with more than `m / SWEEP_SHARE` nonzeros in `L` are solved by
/// the plain sweep instead of the hypersparse walk.
const SWEEP_SHARE: usize = 10;

/// Sparse LU factors `P B Q = L U` of one basis, stored column-wise in pivot
/// order. Immutable after [`LuFactors::factorize`]; shared solves only need
/// a caller-provided workspace, so `&self` methods serve both the hot path
/// and `&self` verification code like `Simplex::kkt_violation`.
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    m: usize,
    /// `rowperm[k]` = original row eliminated at step `k`.
    rowperm: Vec<usize>,
    /// Inverse of `rowperm`: original row → pivot step.
    rowpos: Vec<usize>,
    /// `colperm[k]` = basis position eliminated at step `k`.
    colperm: Vec<usize>,
    /// Inverse of `colperm`: basis position → pivot step.
    colpos: Vec<usize>,
    /// Unit lower triangle, column `k` holding `(i, l_ik)` with `i > k` in
    /// pivot coordinates.
    l_ptr: Vec<usize>,
    l_idx: Vec<usize>,
    l_val: Vec<f64>,
    /// Strict upper triangle, column `k` holding `(i, u_ik)` with `i < k`.
    u_ptr: Vec<usize>,
    u_idx: Vec<usize>,
    u_val: Vec<f64>,
    /// The strict upper triangle again by rows: row `k` holds `(j, u_kj)`
    /// with `j > k`, for the pushes of BTRAN's `Uᵀ` pass.
    ur_ptr: Vec<usize>,
    ur_idx: Vec<usize>,
    ur_val: Vec<f64>,
    /// Pivot steps whose `L` column is nonempty, ascending.
    l_nonempty: Vec<usize>,
    /// `U` diagonal (the pivot values), dense by construction.
    u_diag: Vec<f64>,
    /// `max|u_kk| / min|u_kk|` of the fresh factorization.
    u_diag_ratio: f64,
    /// The elimination workspace, kept for the next refactorization.
    elim: Elimination,
}

/// Scratch of the hypersparse solves: the dense pivot-step vector and two
/// bitsets, all zero between solves.
#[derive(Debug, Clone, Default)]
struct SolveWork {
    work: Vec<f64>,
    /// Pivot steps that may hold a nonzero during a solve.
    pending: BitSet,
    /// Output positions that hold a nonzero.
    mark: BitSet,
}

impl SolveWork {
    fn resize(&mut self, m: usize) {
        self.work.resize(m, 0.0);
        self.pending.resize(m);
        self.mark.resize(m);
    }

    fn memory_bytes(&self) -> usize {
        self.work.capacity() * std::mem::size_of::<f64>()
            + self.pending.memory_bytes()
            + self.mark.memory_bytes()
    }
}

impl LuFactors {
    /// Factorizes the basis given by `basis` (indices into `cols`). Returns
    /// `false` — leaving `self` unusable — when the basis is singular at the
    /// [`ABS_PIVOT_MIN`] cutoff. Pivots are chosen under the
    /// [`MARKOWITZ_TOL`] threshold.
    pub fn factorize(&mut self, cols: &CscMatrix, basis: &[usize]) -> bool {
        let m = basis.len();
        self.m = m;
        self.u_diag_ratio = 1.0;
        self.rowperm.clear();
        self.colperm.clear();
        self.rowpos.clear();
        self.rowpos.resize(m, usize::MAX);
        self.colpos.clear();
        self.colpos.resize(m, usize::MAX);
        self.l_ptr.clear();
        self.l_ptr.push(0);
        self.l_idx.clear();
        self.l_val.clear();
        self.l_nonempty.clear();
        self.ur_ptr.clear();
        self.ur_ptr.push(0);
        self.ur_idx.clear();
        self.ur_val.clear();
        self.u_diag.clear();

        let elim = &mut self.elim;
        elim.load(cols, basis);
        for k in 0..m {
            let Some(p) = elim.choose_pivot() else {
                return false;
            };
            self.rowperm.push(p.row);
            self.colperm.push(p.col);
            self.rowpos[p.row] = k;
            self.colpos[p.col] = k;
            self.u_diag.push(p.val);
            // The retired pivot row is row `k` of `U`; its columns become
            // pivot steps once the elimination is over.
            let start = self.ur_idx.len();
            elim.retire(p, &mut self.ur_idx, &mut self.ur_val);
            self.ur_ptr.push(self.ur_idx.len());
            elim.eliminate(p, &self.ur_idx[start..], &self.ur_val[start..]);
            self.l_ptr.push(elim.l_stage.len());
        }

        // `L` column `k` holds step `k`'s multipliers by original row: map
        // the rows to pivot steps and sort each column.
        for k in 0..m {
            let col = &mut elim.l_stage[self.l_ptr[k]..self.l_ptr[k + 1]];
            for e in col.iter_mut() {
                e.0 = self.rowpos[e.0];
            }
            col.sort_unstable_by_key(|&(i, _)| i);
            if !col.is_empty() {
                self.l_nonempty.push(k);
            }
            for &(i, v) in col.iter() {
                self.l_idx.push(i);
                self.l_val.push(v);
            }
        }
        // `U` by columns: a counting-sort transpose of its rows, visited in
        // pivot order, so every column comes out sorted. `u_ptr[j]` is
        // column `j`'s fill cursor, shifted back into place afterwards.
        for j in &mut self.ur_idx {
            *j = self.colpos[*j];
        }
        self.u_ptr.clear();
        self.u_ptr.resize(m + 1, 0);
        for &j in &self.ur_idx {
            self.u_ptr[j + 1] += 1;
        }
        for j in 0..m {
            self.u_ptr[j + 1] += self.u_ptr[j];
        }
        self.u_idx.clear();
        self.u_idx.resize(self.ur_idx.len(), 0);
        self.u_val.clear();
        self.u_val.resize(self.ur_val.len(), 0.0);
        for k in 0..m {
            for p in self.ur_ptr[k]..self.ur_ptr[k + 1] {
                let j = self.ur_idx[p];
                let q = self.u_ptr[j];
                self.u_idx[q] = k;
                self.u_val[q] = self.ur_val[p];
                self.u_ptr[j] += 1;
            }
        }
        self.u_ptr.copy_within(0..m, 1);
        self.u_ptr[0] = 0;

        // An empty basis keeps the ratio 1.
        if m > 0 {
            let mut dmax = 0.0f64;
            let mut dmin = f64::INFINITY;
            for &d in &self.u_diag {
                let a = d.abs();
                dmax = dmax.max(a);
                dmin = dmin.min(a);
            }
            self.u_diag_ratio = if dmin > 0.0 {
                dmax / dmin
            } else {
                f64::INFINITY
            };
        }
        true
    }

    /// Sets the factors of the all-slack basis `B = −I` of dimension `m`
    /// directly: identity permutations, a `−1` diagonal and empty `L` and
    /// `U`, which is what [`LuFactors::factorize`] produces for it (every
    /// step pivots on the lowest singleton column). The elimination
    /// workspace is neither used nor sized.
    fn factorize_slack(&mut self, m: usize) {
        self.m = m;
        self.u_diag_ratio = 1.0;
        for perm in [
            &mut self.rowperm,
            &mut self.rowpos,
            &mut self.colperm,
            &mut self.colpos,
        ] {
            perm.clear();
            perm.extend(0..m);
        }
        for ptr in [&mut self.l_ptr, &mut self.u_ptr, &mut self.ur_ptr] {
            ptr.clear();
            ptr.resize(m + 1, 0);
        }
        for idx in [
            &mut self.l_idx,
            &mut self.u_idx,
            &mut self.ur_idx,
            &mut self.l_nonempty,
        ] {
            idx.clear();
        }
        self.l_val.clear();
        self.u_val.clear();
        self.ur_val.clear();
        self.u_diag.clear();
        self.u_diag.resize(m, -1.0);
    }

    /// Solves `B x = b` in place by the plain sweep over all `m` pivot
    /// steps. On entry `x[r]` is the rhs indexed by *original row* `r`; on
    /// return `x[i]` is the solution indexed by *basis position* `i`. `work`
    /// is an `m`-length workspace, left all zero. Forward and backward
    /// passes skip zero positions of the running rhs.
    pub fn ftran(&self, x: &mut [f64], work: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            work[k] = x[self.rowperm[k]];
        }
        // L forward (unit diagonal), push style: nonzero positions only.
        for k in 0..m {
            let v = work[k];
            if v == 0.0 {
                continue;
            }
            let (idx, val) = self.l_column(k);
            for (&i, &l) in idx.iter().zip(val) {
                work[i] -= l * v;
            }
        }
        for k in (0..m).rev() {
            self.u_backward_step(work, k, |_| {});
        }
        for (k, &c) in self.colperm.iter().enumerate() {
            x[c] = std::mem::take(&mut work[k]);
        }
    }

    /// One `U`-backward push from pivot step `k` (FTRAN): divides by the
    /// pivot and pushes along column `k`, reporting each target to `touch`.
    #[inline]
    fn u_backward_step(&self, work: &mut [f64], k: usize, mut touch: impl FnMut(usize)) {
        let v = work[k];
        if v == 0.0 {
            return;
        }
        let v = v / self.u_diag[k];
        work[k] = v;
        let (idx, val) = self.u_column(k);
        for (&i, &u) in idx.iter().zip(val) {
            work[i] -= u * v;
            touch(i);
        }
    }

    /// One `Uᵀ`-forward push from pivot step `k` (BTRAN): divides by the
    /// pivot and pushes along row `k`, reporting each target to `touch`.
    #[inline]
    fn ut_forward_step(&self, work: &mut [f64], k: usize, mut touch: impl FnMut(usize)) {
        let v = work[k];
        if v == 0.0 {
            return;
        }
        let v = v / self.u_diag[k];
        work[k] = v;
        let span = self.ur_ptr[k]..self.ur_ptr[k + 1];
        for (&j, &u) in self.ur_idx[span.clone()].iter().zip(&self.ur_val[span]) {
            work[j] -= u * v;
            touch(j);
        }
    }

    /// `Lᵀ` backward (unit diagonal) at pivot step `k`, as the sweep pulls
    /// it: `y_k = x_k − Σ_{i>k} l_ik y_i`. Returns `y_k`.
    fn lt_backward_step(&self, work: &mut [f64], k: usize) -> f64 {
        let mut acc = work[k];
        let (idx, val) = self.l_column(k);
        for (&i, &l) in idx.iter().zip(val) {
            acc -= l * work[i];
        }
        work[k] = acc;
        acc
    }

    /// True when the factors are sparse enough for the hypersparse solves.
    fn hypersparse(&self) -> bool {
        self.l_val.len() <= self.m / SWEEP_SHARE
    }

    /// FTRAN of a right-hand side that is zero outside the original rows
    /// `rhs`, over the positions it reaches, with the result of
    /// [`LuFactors::ftran`] up to the sign of zeros. Reads and clears `x` at
    /// `rhs`, writes only touched basis positions, and marks the nonzero
    /// ones in `ws.mark`.
    fn ftran_sparse(&self, x: &mut [f64], rhs: &[usize], ws: &mut SolveWork) {
        let SolveWork {
            work,
            pending,
            mark,
        } = ws;
        for &r in rhs {
            let v = std::mem::take(&mut x[r]);
            if v != 0.0 {
                let k = self.rowpos[r];
                work[k] = v;
                pending.insert(k);
            }
        }
        // L forward over its nonempty columns, in the sweep's order.
        for &k in &self.l_nonempty {
            let v = work[k];
            if v == 0.0 {
                continue;
            }
            let (idx, val) = self.l_column(k);
            for (&i, &l) in idx.iter().zip(val) {
                work[i] -= l * v;
                pending.insert(i);
            }
        }
        // U backward over the pending steps, highest first: a push only
        // adds steps below the current one.
        let mut next = pending.last_below(self.m);
        while let Some(k) = next {
            self.u_backward_step(work, k, |i| pending.insert(i));
            next = pending.last_below(k);
        }
        pending.drain(|k| {
            let v = std::mem::take(&mut work[k]);
            if v != 0.0 {
                x[self.colperm[k]] = v;
                mark.insert(self.colperm[k]);
            }
        });
    }

    /// Solves `Bᵀ y = c` in place by the plain sweep over all `m` pivot
    /// steps. On entry `x[i]` is indexed by *basis position* `i`; on return
    /// `x[r]` is indexed by *original row* `r`. `work` is an `m`-length
    /// workspace, left all zero. The column-stored triangles make the
    /// transposed solves pull-style: `Uᵀ` is forward, `Lᵀ` is backward.
    pub fn btran(&self, x: &mut [f64], work: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            work[k] = x[self.colperm[k]];
        }
        // Uᵀ forward: x_k = (c_k − Σ_{i<k} u_ik x_i) / u_kk.
        for k in 0..m {
            let mut acc = work[k];
            for (idx, &i) in self.u_idx[self.u_ptr[k]..self.u_ptr[k + 1]]
                .iter()
                .enumerate()
            {
                acc -= self.u_val[self.u_ptr[k] + idx] * work[i];
            }
            work[k] = acc / self.u_diag[k];
        }
        // Lᵀ backward (unit diagonal): y_k = x_k − Σ_{i>k} l_ik y_i.
        for k in (0..m).rev() {
            let mut acc = work[k];
            for (idx, &i) in self.l_idx[self.l_ptr[k]..self.l_ptr[k + 1]]
                .iter()
                .enumerate()
            {
                acc -= self.l_val[self.l_ptr[k] + idx] * work[i];
            }
            work[k] = acc;
        }
        for (k, &r) in self.rowperm.iter().enumerate() {
            x[r] = std::mem::take(&mut work[k]);
        }
    }

    /// BTRAN of a right-hand side that is zero outside the basis positions
    /// `rhs` (repeats allowed), over the positions it reaches, with the
    /// result of [`LuFactors::btran`] up to the sign of zeros. Reads and
    /// clears `x` at `rhs`, writes only touched original rows, and marks the
    /// nonzero ones in `ws.mark`.
    fn btran_sparse(
        &self,
        x: &mut [f64],
        rhs: impl IntoIterator<Item = usize>,
        ws: &mut SolveWork,
    ) {
        let SolveWork {
            work,
            pending,
            mark,
        } = ws;
        for i in rhs {
            let v = std::mem::take(&mut x[i]);
            if v != 0.0 {
                let k = self.colpos[i];
                work[k] = v;
                pending.insert(k);
            }
        }
        // Uᵀ forward over the pending steps, lowest first, pushing along
        // U's rows: each step receives its terms in the pull's column order.
        let mut next = pending.first_from(0);
        while let Some(k) = next {
            self.ut_forward_step(work, k, |j| pending.insert(j));
            next = pending.first_from(k + 1);
        }
        // Lᵀ backward over L's nonempty columns, pulled as in the sweep.
        for &k in self.l_nonempty.iter().rev() {
            if self.lt_backward_step(work, k) != 0.0 {
                pending.insert(k);
            }
        }
        pending.drain(|k| {
            let v = std::mem::take(&mut work[k]);
            if v != 0.0 {
                x[self.rowperm[k]] = v;
                mark.insert(self.rowperm[k]);
            }
        });
    }

    /// Basis dimension of the stored factorization.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Stored nonzeros in `L` and `U` (diagonal included).
    pub fn nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len() + self.u_diag.len()
    }

    /// `max|u_kk| / min|u_kk|` — an ill-conditioning proxy of the basis
    /// (∞ when a diagonal entry underflowed to zero).
    pub fn u_diag_ratio(&self) -> f64 {
        self.u_diag_ratio
    }

    /// Heap bytes held (capacities, not lengths), for `mem.lp.simplex_bytes`.
    pub fn memory_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let u = std::mem::size_of::<usize>();
        (self.rowperm.capacity()
            + self.rowpos.capacity()
            + self.colperm.capacity()
            + self.colpos.capacity()
            + self.l_ptr.capacity()
            + self.l_idx.capacity()
            + self.u_ptr.capacity()
            + self.u_idx.capacity()
            + self.ur_ptr.capacity()
            + self.ur_idx.capacity()
            + self.l_nonempty.capacity())
            * u
            + (self.l_val.capacity()
                + self.u_val.capacity()
                + self.ur_val.capacity()
                + self.u_diag.capacity())
                * f
            + self.elim.memory_bytes()
    }

    /// Original row eliminated at each pivot step (`P`), for cross-checks.
    pub fn row_perm(&self) -> &[usize] {
        &self.rowperm
    }

    /// Basis position eliminated at each pivot step (`Q`), for cross-checks.
    pub fn col_perm(&self) -> &[usize] {
        &self.colperm
    }

    /// Column `k` of the unit lower triangle `L` (diagonal omitted) as
    /// `(pivot step, value)` slices, for cross-checks.
    pub fn l_column(&self, k: usize) -> (&[usize], &[f64]) {
        let span = self.l_ptr[k]..self.l_ptr[k + 1];
        (&self.l_idx[span.clone()], &self.l_val[span])
    }

    /// Column `k` of the strict upper triangle of `U` as
    /// `(pivot step, value)` slices, for cross-checks.
    pub fn u_column(&self, k: usize) -> (&[usize], &[f64]) {
        let span = self.u_ptr[k]..self.u_ptr[k + 1];
        (&self.u_idx[span.clone()], &self.u_val[span])
    }

    /// The diagonal of `U` (the pivots), for cross-checks.
    pub fn u_diag(&self) -> &[f64] {
        &self.u_diag
    }
}

/// The active columns of an elimination bucketed by nonzero count, one
/// bitset over the columns per count, so the Markowitz candidates come out
/// without scanning every column. [`CountBuckets::sparsest`] walks the
/// buckets upward from the lowest non-empty one, and each bucket's words in
/// index order, so ties in count go to the lower column index. A query reads
/// the words of the buckets it visits (`⌈m/64⌉` each, usually one or two
/// buckets); a count change is two bit flips. Reset per factorization and
/// sized by the largest count seen.
#[derive(Debug, Clone, Default)]
struct CountBuckets {
    /// Active nonzeros per column; stale once the column is removed.
    count: Vec<usize>,
    /// `u64` words per bitset.
    words: usize,
    /// Bucket `c` is `bits[c * words..(c + 1) * words]`.
    bits: Vec<u64>,
    /// Members per bucket.
    len: Vec<usize>,
    /// No bucket below this one has a member.
    min: usize,
}

impl CountBuckets {
    /// Empties the index for `m` columns.
    fn reset(&mut self, m: usize) {
        self.count.clear();
        self.count.resize(m, 0);
        self.words = m.div_ceil(64);
        self.bits.clear();
        self.len.clear();
        self.min = 0;
    }

    fn memory_bytes(&self) -> usize {
        (self.count.capacity() + self.len.capacity()) * std::mem::size_of::<usize>()
            + self.bits.capacity() * std::mem::size_of::<u64>()
    }

    /// Adds column `j` with `count` nonzeros.
    fn insert(&mut self, j: usize, count: usize) {
        if count >= self.len.len() {
            self.len.resize(count + 1, 0);
            self.bits.resize((count + 1) * self.words, 0);
        }
        self.count[j] = count;
        self.bits[count * self.words + j / 64] |= 1 << (j % 64);
        self.len[count] += 1;
        self.min = self.min.min(count);
    }

    /// Drops column `j` from the index.
    fn remove(&mut self, j: usize) {
        let c = self.count[j];
        self.bits[c * self.words + j / 64] &= !(1 << (j % 64));
        self.len[c] -= 1;
    }

    /// Column `j` gained a nonzero (fill-in).
    fn inc(&mut self, j: usize) {
        self.remove(j);
        self.insert(j, self.count[j] + 1);
    }

    /// Column `j` lost a nonzero (row retired or entry cancelled).
    fn dec(&mut self, j: usize) {
        self.remove(j);
        self.insert(j, self.count[j] - 1);
    }

    /// Writes the (at most) `k` columns with the smallest `(count, column)`
    /// pairs to `out`, in that order.
    fn sparsest(&mut self, k: usize, out: &mut Vec<usize>) {
        out.clear();
        while self.min < self.len.len() && self.len[self.min] == 0 {
            self.min += 1;
        }
        for c in self.min..self.len.len() {
            let mut left = self.len[c];
            for (w, &word) in self.bits[c * self.words..(c + 1) * self.words]
                .iter()
                .enumerate()
            {
                if left == 0 {
                    break;
                }
                let mut word = word;
                while word != 0 {
                    out.push(w * 64 + word.trailing_zeros() as usize);
                    if out.len() == k {
                        return;
                    }
                    word &= word - 1;
                    left -= 1;
                }
            }
        }
    }
}

/// Variable-length lists in one flat array: list `i` occupies
/// `start..start + len` of a slot of `cap` entries. A list that outgrows its
/// slot moves to the end of the array with twice the room, so a list moves
/// at most `log₂` of its final length times and the array stays within a
/// small multiple of the entries it holds.
#[derive(Debug, Clone, Default)]
struct Lists<T> {
    slots: Vec<Slot>,
    data: Vec<T>,
}

/// Where one list of a [`Lists`] lives.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    start: usize,
    len: usize,
    cap: usize,
}

impl<T: Copy + Default> Lists<T> {
    /// Empties every list and lays the slots out in order, each with the
    /// room its `cap` asks for.
    fn lay_out(&mut self) {
        let mut start = 0;
        for s in &mut self.slots {
            s.start = start;
            s.len = 0;
            start += s.cap;
        }
        self.data.clear();
        self.data.resize(start, T::default());
    }

    fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.data.capacity() * std::mem::size_of::<T>()
    }

    fn get(&self, i: usize) -> &[T] {
        let s = self.slots[i];
        &self.data[s.start..s.start + s.len]
    }

    /// Gives list `i` a slot of at least `len` entries, moving it to the end
    /// (its first `keep` entries with it) when it has less room.
    fn reserve(&mut self, i: usize, len: usize, keep: usize) {
        let s = self.slots[i];
        if len > s.cap {
            let start = self.data.len();
            self.data.extend_from_within(s.start..s.start + keep);
            self.data.resize(start + 2 * len, T::default());
            self.slots[i] = Slot {
                start,
                len: keep,
                cap: 2 * len,
            };
        }
    }

    fn push(&mut self, i: usize, x: T) {
        let len = self.slots[i].len;
        self.reserve(i, len + 1, len);
        let s = &mut self.slots[i];
        self.data[s.start + s.len] = x;
        s.len += 1;
    }

    /// Replaces list `i` with `xs`.
    fn set(&mut self, i: usize, xs: &[T]) {
        self.reserve(i, xs.len(), 0);
        let s = &mut self.slots[i];
        self.data[s.start..s.start + xs.len()].copy_from_slice(xs);
        s.len = xs.len();
    }

    /// Keeps the entries of list `i` that satisfy `keep`, in order.
    fn retain(&mut self, i: usize, mut keep: impl FnMut(T) -> bool) {
        let s = self.slots[i];
        let mut end = s.start;
        for p in s.start..s.start + s.len {
            let x = self.data[p];
            if keep(x) {
                self.data[end] = x;
                end += 1;
            }
        }
        self.slots[i].len = end - s.start;
    }
}

/// One admissible entry of the active submatrix with its Markowitz score
/// `(r_i − 1)(c_j − 1)`.
#[derive(Debug, Clone, Copy)]
struct Pivot {
    row: usize,
    col: usize,
    val: f64,
    score: usize,
}

impl Pivot {
    /// The search order: lower score, then larger magnitude, then lower
    /// `(row, column)`. Total on distinct entries, so the best of any
    /// grouping of the candidates is the same entry.
    fn beats(&self, other: &Pivot) -> bool {
        let (a, b) = (self.val.abs(), other.val.abs());
        self.score < other.score
            || (self.score == other.score
                && (a > b || (a == b && (self.row, self.col) < (other.row, other.col))))
    }
}

/// The active submatrix of a [`LuFactors::factorize`] call, kept between
/// calls so that a refactorization reuses its arrays. Rows hold
/// only active columns, sorted, which keeps the row counts exact; a
/// column's candidate rows are validated lazily against `row_active` (a
/// retired row or a cancelled entry stays listed until the column is next
/// scanned).
#[derive(Debug, Clone, Default)]
struct Elimination {
    /// Row `r`: `(column, value)` entries sorted by column.
    rows: Lists<(usize, f64)>,
    /// Column `j`: rows that may hold an entry in it.
    cols: Lists<usize>,
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    /// Active columns by nonzero count.
    counts: CountBuckets,
    /// Per column, its best admissible entry as of its last scan.
    best: Vec<Option<Pivot>>,
    /// Columns whose count, rows or values changed since their last scan.
    dirty: Vec<bool>,
    /// The Markowitz candidates of the current step.
    cand: Vec<usize>,
    /// Merge buffer of a row being rewritten.
    merged: Vec<(usize, f64)>,
    /// `L` multipliers `(original row, l)` of every step so far, in order.
    l_stage: Vec<(usize, f64)>,
}

impl Elimination {
    /// Loads the basis columns by one counting pass over them.
    fn load(&mut self, cols: &CscMatrix, basis: &[usize]) {
        let m = basis.len();
        self.rows.slots.clear();
        self.rows.slots.resize(m, Slot::default());
        self.cols.slots.clear();
        for &j in basis {
            let (ridx, _) = cols.column(j);
            for &r in ridx {
                self.rows.slots[r].cap += 1;
            }
            self.cols.slots.push(Slot {
                cap: ridx.len(),
                ..Slot::default()
            });
        }
        self.rows.lay_out();
        self.cols.lay_out();
        self.counts.reset(m);
        for (c, &j) in basis.iter().enumerate() {
            let (ridx, vals) = cols.column(j);
            for (&r, &v) in ridx.iter().zip(vals) {
                self.rows.push(r, (c, v));
                self.cols.push(c, r);
            }
            self.counts.insert(c, ridx.len());
        }
        for flags in [&mut self.row_active, &mut self.col_active, &mut self.dirty] {
            flags.clear();
            flags.resize(m, true);
        }
        self.best.clear();
        self.best.resize(m, None);
        self.l_stage.clear();
    }

    fn memory_bytes(&self) -> usize {
        self.rows.memory_bytes()
            + self.cols.memory_bytes()
            + self.counts.memory_bytes()
            + self.row_active.capacity()
            + self.col_active.capacity()
            + self.dirty.capacity()
            + self.best.capacity() * std::mem::size_of::<Option<Pivot>>()
            + self.cand.capacity() * std::mem::size_of::<usize>()
            + (self.merged.capacity() + self.l_stage.capacity())
                * std::mem::size_of::<(usize, f64)>()
    }

    /// The value of entry `(r, j)`, if the row holds one.
    fn entry(&self, r: usize, j: usize) -> Option<f64> {
        let row = self.rows.get(r);
        row.binary_search_by_key(&j, |&(c, _)| c)
            .ok()
            .map(|p| row[p].1)
    }

    /// Markowitz selection over the sparsest few active columns, widened to
    /// every active column when none of those has an admissible entry.
    /// `None` means the active submatrix is numerically singular.
    fn choose_pivot(&mut self) -> Option<Pivot> {
        let mut cand = std::mem::take(&mut self.cand);
        self.counts.sparsest(MARKOWITZ_CANDIDATES, &mut cand);
        let mut best = self.best_of(&cand);
        if best.is_none() && cand.len() == MARKOWITZ_CANDIDATES {
            cand.clear();
            cand.extend((0..self.col_active.len()).filter(|&j| self.col_active[j]));
            best = self.best_of(&cand);
        }
        self.cand = cand;
        best
    }

    /// The best admissible entry of the columns `cand`, from each column's
    /// cached best, rescanning the dirty columns.
    fn best_of(&mut self, cand: &[usize]) -> Option<Pivot> {
        let mut best: Option<Pivot> = None;
        for &j in cand {
            if self.dirty[j] {
                self.best[j] = self.scan_column(j);
                self.dirty[j] = false;
            }
            if let Some(p) = self.best[j] {
                if best.is_none_or(|b| p.beats(&b)) {
                    best = Some(p);
                }
            }
        }
        best
    }

    /// Column `j`'s best entry among those within [`MARKOWITZ_TOL`] of its
    /// largest magnitude (and at least [`ABS_PIVOT_MIN`]). Drops retired rows
    /// from its candidate list in passing.
    fn scan_column(&mut self, j: usize) -> Option<Pivot> {
        let row_active = &self.row_active;
        self.cols.retain(j, |r| row_active[r]);
        let mut colmax = 0.0f64;
        for &r in self.cols.get(j) {
            if let Some(v) = self.entry(r, j) {
                colmax = colmax.max(v.abs());
            }
        }
        if colmax < ABS_PIVOT_MIN {
            return None;
        }
        let cutoff = (MARKOWITZ_TOL * colmax).max(ABS_PIVOT_MIN);
        let col_count = self.counts.count[j];
        let mut best: Option<Pivot> = None;
        for &r in self.cols.get(j) {
            let Some(val) = self.entry(r, j) else {
                continue; // cancelled earlier
            };
            if val.abs() < cutoff {
                continue;
            }
            let p = Pivot {
                row: r,
                col: j,
                val,
                score: (self.rows.get(r).len() - 1) * (col_count - 1),
            };
            if best.is_none_or(|b| p.beats(&b)) {
                best = Some(p);
            }
        }
        best
    }

    /// Retires the pivot row and column, appending the row's other entries
    /// `(column, value)` to `u_idx`/`u_val`.
    fn retire(&mut self, p: Pivot, u_idx: &mut Vec<usize>, u_val: &mut Vec<f64>) {
        self.row_active[p.row] = false;
        self.col_active[p.col] = false;
        self.counts.remove(p.col);
        for &(c, v) in self.rows.get(p.row) {
            if c != p.col {
                self.counts.dec(c);
                self.dirty[c] = true;
                u_idx.push(c);
                u_val.push(v);
            }
        }
    }

    /// Eliminates the pivot column from every active row holding it:
    /// `row ← row − l · prow` with `l = a_{row, pivot column} / pivot`,
    /// where `prow` is the retired pivot row `(u_idx, u_val)` without the
    /// pivot column. Records each `l` in `l_stage`.
    fn eliminate(&mut self, p: Pivot, u_idx: &[usize], u_val: &[f64]) {
        let targets = self.cols.slots[p.col];
        for t in targets.start..targets.start + targets.len {
            // No fill-in lands in the pivot column, so its slot stays put.
            let r = self.cols.data[t];
            if !self.row_active[r] {
                continue;
            }
            let Some(a) = self.entry(r, p.col) else {
                continue; // cancelled earlier; lazily dropped here
            };
            let f = a / p.val;
            self.l_stage.push((r, f));
            self.merge_row(r, p.col, f, u_idx, u_val);
        }
    }

    /// Rewrites row `r` as `r − f · prow`, dropping column `pj`, and keeps
    /// the column counts, candidate lists and dirty marks current.
    fn merge_row(&mut self, r: usize, pj: usize, f: f64, u_idx: &[usize], u_val: &[f64]) {
        let Self {
            rows,
            cols,
            counts,
            dirty,
            merged,
            ..
        } = self;
        let a = rows.get(r);
        merged.clear();
        let (mut ia, mut ib) = (0, 0);
        loop {
            let ca = a.get(ia).map_or(usize::MAX, |e| e.0);
            let cb = u_idx.get(ib).copied().unwrap_or(usize::MAX);
            if ca < cb {
                if ca != pj {
                    merged.push(a[ia]);
                    dirty[ca] = true;
                }
                ia += 1;
            } else if cb < ca {
                // Fill-in.
                merged.push((cb, -f * u_val[ib]));
                counts.inc(cb);
                cols.push(cb, r);
                dirty[cb] = true;
                ib += 1;
            } else if ca == usize::MAX {
                break;
            } else {
                let v = a[ia].1 - f * u_val[ib];
                if v != 0.0 {
                    merged.push((ca, v));
                } else {
                    counts.dec(ca);
                }
                dirty[ca] = true;
                ia += 1;
                ib += 1;
            }
        }
        rows.set(r, merged);
    }
}

/// Product-form eta file layered on top of [`LuFactors`]: one eta per basis
/// exchange, built from the FTRAN spike of the entering column. Flattened
/// storage keeps replay allocation-free.
#[derive(Debug, Clone, Default)]
pub struct EtaFile {
    ptr: Vec<usize>,
    /// Off-pivot spike entries, in basis-position space.
    idx: Vec<usize>,
    val: Vec<f64>,
    pivot_row: Vec<usize>,
    inv_piv: Vec<f64>,
}

impl EtaFile {
    /// Drops every eta (after a refactorization).
    pub fn clear(&mut self) {
        self.ptr.clear();
        self.idx.clear();
        self.val.clear();
        self.pivot_row.clear();
        self.inv_piv.clear();
    }

    /// Number of recorded etas.
    pub fn count(&self) -> usize {
        self.pivot_row.len()
    }

    /// Total stored off-pivot nonzeros — the fill figure the simplex bounds
    /// by refactorizing early.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Records the eta of a pivot at basis row `r` with FTRAN spike `w`
    /// (`w[r]` is the pivot element; caller guarantees it is nonzero).
    pub fn push(&mut self, r: usize, w: &[f64]) {
        self.push_from(r, w, 0..w.len());
    }

    /// [`EtaFile::push`] reading `w` only at `positions`, ascending, which
    /// must hold every nonzero of `w`. Returns `max |w_i|` over them.
    pub(crate) fn push_from(
        &mut self,
        r: usize,
        w: &[f64],
        positions: impl IntoIterator<Item = usize>,
    ) -> f64 {
        if self.ptr.is_empty() {
            self.ptr.push(0);
        }
        let mut w_max = 0.0f64;
        for i in positions {
            let wi = w[i];
            w_max = w_max.max(wi.abs());
            if i != r && wi != 0.0 {
                self.idx.push(i);
                self.val.push(wi);
            }
        }
        self.ptr.push(self.idx.len());
        self.pivot_row.push(r);
        self.inv_piv.push(1.0 / w[r]);
        w_max
    }

    /// Applies the etas in recording order (FTRAN tail): for each eta,
    /// `x_r ← x_r / w_r` then `x_i ← x_i − w_i · x_r` — skipped entirely
    /// when the running `x_r` is zero.
    pub fn apply_ftran(&self, x: &mut [f64]) {
        self.apply_ftran_with(x, |_| {});
    }

    /// [`EtaFile::apply_ftran`], reporting every position `x_i` it writes
    /// besides the pivot positions (which it writes only when nonzero).
    fn apply_ftran_with(&self, x: &mut [f64], mut touch: impl FnMut(usize)) {
        for e in 0..self.count() {
            let r = self.pivot_row[e];
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let t = xr * self.inv_piv[e];
            x[r] = t;
            for p in self.ptr[e]..self.ptr[e + 1] {
                let i = self.idx[p];
                x[i] -= self.val[p] * t;
                touch(i);
            }
        }
    }

    /// Applies the transposed etas in reverse order (BTRAN head):
    /// `x_r ← (x_r − Σ_i w_i x_i) / w_r`.
    pub fn apply_btran(&self, x: &mut [f64]) {
        for e in (0..self.count()).rev() {
            let r = self.pivot_row[e];
            let mut acc = x[r];
            for p in self.ptr[e]..self.ptr[e + 1] {
                acc -= self.val[p] * x[self.idx[p]];
            }
            x[r] = acc * self.inv_piv[e];
        }
    }

    /// Heap bytes held (capacities, not lengths).
    pub fn memory_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let u = std::mem::size_of::<usize>();
        (self.ptr.capacity() + self.idx.capacity() + self.pivot_row.capacity()) * u
            + (self.val.capacity() + self.inv_piv.capacity()) * f
    }
}

/// The complete basis representation the simplex engine drives: sparse LU
/// factors plus the eta file accumulated since the last refactorization,
/// with an owned workspace for the `&mut self` hot-path solves.
#[derive(Debug, Clone, Default)]
pub struct BasisFactor {
    lu: LuFactors,
    etas: EtaFile,
    ready: bool,
    ws: SolveWork,
}

impl BasisFactor {
    /// (Re-)factorizes the basis, dropping the eta file. Returns `false` on
    /// a singular basis, in which case the previous factorization is lost
    /// and [`BasisFactor::is_ready`] turns false.
    ///
    /// A basis whose column at every position `i` is `−e_i` (the all-slack
    /// basis of the simplex engine) gets its factors set directly, without
    /// the elimination; they are the ones the elimination would produce.
    pub fn factorize(&mut self, cols: &CscMatrix, basis: &[usize]) -> bool {
        self.etas.clear();
        self.ws.resize(basis.len());
        let slack = basis
            .iter()
            .enumerate()
            .all(|(i, &j)| cols.column(j) == (&[i][..], &[-1.0][..]));
        self.ready = if slack {
            self.lu.factorize_slack(basis.len());
            true
        } else {
            self.lu.factorize(cols, basis)
        };
        self.ready
    }

    /// Marks the factors stale (after the basis was replaced wholesale):
    /// [`BasisFactor::is_ready`] stays false until the next factorization.
    pub fn invalidate(&mut self) {
        self.ready = false;
    }

    /// True when a factorization of dimension `m` is available.
    pub fn is_ready(&self, m: usize) -> bool {
        self.ready && self.lu.dim() == m
    }

    /// `x ← B⁻¹ x`: rhs enters indexed by original row, the solution leaves
    /// indexed by basis position (LU solve, then the eta file forward).
    pub fn ftran(&mut self, x: &mut [f64]) {
        self.lu.ftran(x, &mut self.ws.work);
        self.etas.apply_ftran(x);
    }

    /// [`BasisFactor::ftran`] of a right-hand side that is zero outside the
    /// original rows `rhs`, at a cost that follows the positions it reaches.
    /// `support`, empty or as an earlier solve left it, receives, ascending,
    /// every basis position of the result that may be nonzero (all of them
    /// when the factors are dense); `x` is written nowhere else. The
    /// nonzeros equal those of [`BasisFactor::ftran`] bit for bit.
    pub fn ftran_sparse(&mut self, x: &mut [f64], rhs: &[usize], support: &mut Vec<usize>) {
        if !self.lu.hypersparse() {
            self.ftran(x);
            return every_position(support, self.lu.dim());
        }
        self.lu.ftran_sparse(x, rhs, &mut self.ws);
        let mark = &mut self.ws.mark;
        self.etas.apply_ftran_with(x, |i| mark.insert(i));
        support.clear();
        mark.drain(|i| support.push(i));
    }

    /// `x ← B⁻ᵀ x`: costs enter indexed by basis position, the multipliers
    /// leave indexed by original row (eta file transposed in reverse, then
    /// the LU transpose solve).
    pub fn btran(&mut self, x: &mut [f64]) {
        self.etas.apply_btran(x);
        self.lu.btran(x, &mut self.ws.work);
    }

    /// [`BasisFactor::btran`] of a right-hand side that is zero outside the
    /// basis positions `rhs`, at a cost that follows the positions the LU
    /// solve reaches (the eta file is replayed whole). `support`, empty or as
    /// an earlier solve left it, receives, ascending, every original row of
    /// the result that may be nonzero (all of them when the factors are
    /// dense); `x` is written nowhere else. The nonzeros equal those of
    /// [`BasisFactor::btran`] bit for bit.
    pub fn btran_sparse(&mut self, x: &mut [f64], rhs: &[usize], support: &mut Vec<usize>) {
        if !self.lu.hypersparse() {
            self.btran(x);
            return every_position(support, self.lu.dim());
        }
        self.etas.apply_btran(x);
        // The LU solve reads the right-hand side plus every position the
        // etas wrote.
        let reads = rhs.iter().chain(&self.etas.pivot_row).copied();
        self.lu.btran_sparse(x, reads, &mut self.ws);
        support.clear();
        self.ws.mark.drain(|i| support.push(i));
    }

    /// `&self` BTRAN against a caller-provided workspace, for verification
    /// paths like `Simplex::kkt_violation` that only hold `&self`.
    pub fn btran_with(&self, x: &mut [f64], work: &mut [f64]) {
        self.etas.apply_btran(x);
        self.lu.btran(x, work);
    }

    /// Records the eta of a pivot at basis row `r` with FTRAN spike `w`.
    pub fn push_eta(&mut self, r: usize, w: &[f64]) {
        self.etas.push(r, w);
    }

    /// [`BasisFactor::push_eta`] for a spike whose nonzeros all lie in the
    /// ascending `support` (as [`BasisFactor::ftran_sparse`] reports it), in
    /// one pass over the support. Returns `max |w_i|`, the eta growth
    /// numerator.
    pub fn push_eta_sparse(&mut self, r: usize, w: &[f64], support: &[usize]) -> f64 {
        self.etas.push_from(r, w, support.iter().copied())
    }

    /// Off-pivot nonzeros currently held in the eta file.
    pub fn eta_nnz(&self) -> usize {
        self.etas.nnz()
    }

    /// Etas recorded since the last refactorization.
    pub fn eta_count(&self) -> usize {
        self.etas.count()
    }

    /// Stored nonzeros in the LU triangles (diagonal included).
    pub fn lu_nnz(&self) -> usize {
        self.lu.nnz()
    }

    /// Conditioning proxy of the last factorization; see
    /// [`LuFactors::u_diag_ratio`].
    pub fn u_diag_ratio(&self) -> f64 {
        self.lu.u_diag_ratio()
    }

    /// Heap bytes held by the factors, the eta file and the workspace.
    pub fn memory_bytes(&self) -> usize {
        self.lu.memory_bytes() + self.etas.memory_bytes() + self.ws.memory_bytes()
    }
}

/// Sets `support` to every position below `m`, the support a solve over
/// dense factors reports. A support an earlier solve left with `m` entries
/// (ascending, distinct, below `m`) is that list already, so repeated dense
/// solves leave it as it is.
fn every_position(support: &mut Vec<usize>, m: usize) {
    if support.len() != m {
        support.clear();
        support.extend(0..m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis_matrix(entries: &[&[(usize, f64)]]) -> (CscMatrix, Vec<usize>) {
        let m = entries.len();
        let mut cols = CscMatrix::empty(m);
        for col in entries {
            cols.push_column(col);
        }
        (cols, (0..m).collect())
    }

    #[test]
    fn identity_factorizes_trivially() {
        let (cols, basis) = basis_matrix(&[&[(0, 1.0)], &[(1, 1.0)], &[(2, 1.0)]]);
        let mut f = BasisFactor::default();
        assert!(f.factorize(&cols, &basis));
        assert!(f.is_ready(3));
        assert_eq!(f.u_diag_ratio(), 1.0);
        let mut x = vec![3.0, -1.0, 2.0];
        f.ftran(&mut x);
        assert_eq!(x, vec![3.0, -1.0, 2.0]);
        let mut y = vec![1.0, 2.0, 3.0];
        f.btran(&mut y);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn singular_basis_is_rejected() {
        // Two identical columns.
        let (cols, basis) = basis_matrix(&[&[(0, 1.0), (1, 1.0)], &[(0, 1.0), (1, 1.0)]]);
        let mut f = BasisFactor::default();
        assert!(!f.factorize(&cols, &basis));
        assert!(!f.is_ready(2));
    }

    #[test]
    fn structurally_empty_row_is_singular() {
        let (cols, basis) = basis_matrix(&[&[(0, 1.0)], &[(0, 2.0)]]);
        let mut f = BasisFactor::default();
        assert!(!f.factorize(&cols, &basis));
    }

    #[test]
    fn solves_match_a_small_dense_system() {
        // B = [[2, 1, 0], [0, 3, 1], [1, 0, 4]] with known inverse action.
        let (cols, basis) = basis_matrix(&[
            &[(0, 2.0), (2, 1.0)],
            &[(0, 1.0), (1, 3.0)],
            &[(1, 1.0), (2, 4.0)],
        ]);
        let mut f = BasisFactor::default();
        assert!(f.factorize(&cols, &basis));
        // Solve B x = [1, 2, 3]': x = B⁻¹ b, checked by multiplying back.
        let b = [1.0, 2.0, 3.0];
        let mut x = b.to_vec();
        f.ftran(&mut x);
        // x indexed by basis position; recompose Ax by columns.
        let mut back = [0.0; 3];
        for (c, &j) in basis.iter().enumerate() {
            cols.axpy_column(j, x[c], &mut back);
        }
        for (bi, bb) in back.iter().zip(&b) {
            assert!((bi - bb).abs() < 1e-12, "B·x = {back:?} vs {b:?}");
        }
        // Bᵀ y = c.
        let c = [1.0, -1.0, 0.5];
        let mut y = c.to_vec();
        f.btran(&mut y);
        for (pos, &j) in basis.iter().enumerate() {
            let dot = cols.column_dot(j, &y);
            assert!(
                (dot - c[pos]).abs() < 1e-12,
                "col {pos}: {dot} vs {}",
                c[pos]
            );
        }
    }

    #[test]
    fn eta_updates_track_a_column_replacement() {
        // Start from the identity, replace basis column 1 by [1, 2, 1]'.
        let m = 3;
        let mut cols = CscMatrix::empty(m);
        for i in 0..m {
            cols.push_column(&[(i, 1.0)]);
        }
        cols.push_column(&[(0, 1.0), (1, 2.0), (2, 1.0)]); // column index 3
        let mut basis: Vec<usize> = vec![0, 1, 2];
        let mut f = BasisFactor::default();
        assert!(f.factorize(&cols, &basis));
        // FTRAN the entering column, pivot at row 1.
        let mut w = vec![0.0; m];
        cols.axpy_column(3, 1.0, &mut w);
        f.ftran(&mut w);
        f.push_eta(1, &w);
        basis[1] = 3;
        assert_eq!(f.eta_count(), 1);
        assert!(f.eta_nnz() > 0);
        // The updated representation must solve with the *new* basis.
        let b = [1.0, 1.0, 1.0];
        let mut x = b.to_vec();
        f.ftran(&mut x);
        let mut back = [0.0; 3];
        for (c, &j) in basis.iter().enumerate() {
            cols.axpy_column(j, x[c], &mut back);
        }
        for (bi, bb) in back.iter().zip(&b) {
            assert!((bi - bb).abs() < 1e-12, "B·x = {back:?}");
        }
        let cvec = [2.0, -1.0, 1.0];
        let mut y = cvec.to_vec();
        f.btran(&mut y);
        for (pos, &j) in basis.iter().enumerate() {
            let dot = cols.column_dot(j, &y);
            assert!((dot - cvec[pos]).abs() < 1e-12);
        }
        // Refactorizing from the new header clears the eta file.
        assert!(f.factorize(&cols, &basis));
        assert_eq!(f.eta_count(), 0);
    }

    #[test]
    fn u_diag_ratio_flags_near_singularity() {
        let eps = 1e-6;
        let (cols, basis) = basis_matrix(&[&[(0, 1.0), (1, 1.0)], &[(0, 1.0), (1, 1.0 + eps)]]);
        let mut f = BasisFactor::default();
        assert!(f.factorize(&cols, &basis));
        let ratio = f.u_diag_ratio();
        assert!(ratio > 1e5 && ratio < 1e8, "ratio {ratio}");
    }

    /// splitmix64, the repo-wide test RNG.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn count_buckets_match_a_sorted_brute_force() {
        let mut rng = 11u64;
        let mut out = Vec::new();
        for case in 0..40 {
            let m = 1 + (splitmix(&mut rng) % 150) as usize;
            let mut index = CountBuckets::default();
            index.reset(m);
            // The brute-force mirror: each member column's count.
            let mut member: Vec<Option<usize>> = vec![None; m];
            for step in 0..10 * m {
                let j = (splitmix(&mut rng) % m as u64) as usize;
                let op = splitmix(&mut rng) % 8;
                member[j] = match member[j] {
                    None => {
                        let c = (splitmix(&mut rng) % 6) as usize;
                        index.insert(j, c);
                        Some(c)
                    }
                    Some(_) if op == 0 => {
                        index.remove(j);
                        None
                    }
                    Some(c) if op < 4 && c > 0 => {
                        index.dec(j);
                        Some(c - 1)
                    }
                    Some(c) => {
                        index.inc(j);
                        Some(c + 1)
                    }
                };
                let k = 1 + (splitmix(&mut rng) % 6) as usize;
                index.sparsest(k, &mut out);
                let mut expect: Vec<(usize, usize)> = member
                    .iter()
                    .enumerate()
                    .filter_map(|(j, c)| c.map(|c| (c, j)))
                    .collect();
                expect.sort_unstable();
                let expect: Vec<usize> = expect.into_iter().take(k).map(|(_, j)| j).collect();
                assert_eq!(out, expect, "case {case} (m = {m}) step {step}");
            }
        }
    }

    /// The all-slack basis `−I` gets from the direct path the factors the
    /// elimination produces, and the same solves bit for bit, without the
    /// elimination workspace.
    #[test]
    fn slack_factors_equal_the_elimination() {
        for m in [1, 7, 150] {
            let mut cols = CscMatrix::empty(m);
            // A structural column first, so the basis is not `0..m`.
            cols.push_column(&[(0, 2.0)]);
            for i in 0..m {
                cols.push_column(&[(i, -1.0)]);
            }
            let basis: Vec<usize> = (1..=m).collect();
            let mut lu = LuFactors::default();
            assert!(lu.factorize(&cols, &basis));
            let mut eliminated = BasisFactor {
                lu,
                ready: true,
                ..BasisFactor::default()
            };
            eliminated.ws.resize(m);
            let mut direct = BasisFactor::default();
            assert!(direct.factorize(&cols, &basis));
            let (a, b) = (&eliminated.lu, &direct.lu);
            assert_eq!(a.row_perm(), b.row_perm(), "m = {m}");
            assert_eq!(a.col_perm(), b.col_perm(), "m = {m}");
            assert_eq!((&a.rowpos, &a.colpos), (&b.rowpos, &b.colpos), "m = {m}");
            for k in 0..m {
                assert_eq!(a.l_column(k), b.l_column(k), "m = {m}, step {k}");
                assert_eq!(a.u_column(k), b.u_column(k), "m = {m}, step {k}");
            }
            assert_eq!((&a.ur_ptr, &a.ur_idx), (&b.ur_ptr, &b.ur_idx), "m = {m}");
            assert_eq!(a.l_nonempty, b.l_nonempty, "m = {m}");
            let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a.u_diag()), bits(b.u_diag()), "m = {m}");
            assert_eq!(
                a.u_diag_ratio().to_bits(),
                b.u_diag_ratio().to_bits(),
                "m = {m}"
            );
            assert_eq!(a.hypersparse(), b.hypersparse(), "m = {m}");
            // FTRAN and BTRAN of every unit vector, dense and hypersparse.
            for i in 0..m {
                let mut out = Vec::new();
                for f in [&mut eliminated, &mut direct] {
                    let mut e = vec![0.0; m];
                    e[i] = 1.0;
                    let (mut x, mut y, mut xs, mut ys) = (e.clone(), e.clone(), e.clone(), e);
                    let (mut x_support, mut y_support) = (Vec::new(), Vec::new());
                    f.ftran(&mut x);
                    f.btran(&mut y);
                    f.ftran_sparse(&mut xs, &[i], &mut x_support);
                    f.btran_sparse(&mut ys, &[i], &mut y_support);
                    out.push((
                        bits(&x),
                        bits(&y),
                        bits(&xs),
                        bits(&ys),
                        x_support,
                        y_support,
                    ));
                }
                assert_eq!(out[0], out[1], "m = {m}, unit vector {i}");
            }
            assert_eq!(direct.lu.elim.memory_bytes(), 0, "m = {m}");
            assert!(eliminated.lu.elim.memory_bytes() > 0, "m = {m}");
            assert!(direct.memory_bytes() < eliminated.memory_bytes(), "m = {m}");
        }
    }

    #[test]
    fn memory_bytes_counts_factors_and_etas() {
        let (cols, basis) = basis_matrix(&[&[(0, 1.0)], &[(1, 1.0)]]);
        let mut f = BasisFactor::default();
        assert!(f.factorize(&cols, &basis));
        let before = f.memory_bytes();
        assert!(before > 0);
        f.push_eta(0, &[2.0, 1.0]);
        assert!(f.memory_bytes() >= before);
        // The elimination workspace outlives the call, and is counted.
        let with_workspace = f.memory_bytes();
        let workspace = std::mem::take(&mut f.lu.elim);
        assert!(workspace.memory_bytes() > 0);
        assert_eq!(with_workspace - f.memory_bytes(), workspace.memory_bytes());
    }
}
