//! Minimal sparse-matrix support for the simplex solver.
//!
//! The solver stores the constraint matrix column-wise ([`CscMatrix`]) because
//! both pricing (`c_j - y'A_j`) and the forward transformation (`B⁻¹ A_j`)
//! traverse individual columns, and once more by rows for the dual simplex's
//! pivot row. [`CscMatrix::with_slacks`] builds both copies from the row
//! store of an [`LpProblem`](crate::LpProblem) in one counting pass.

/// Compressed sparse column matrix.
#[derive(Debug, Clone)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// An `nrows × 0` matrix, extendable with [`push_column`](Self::push_column).
    pub fn empty(nrows: usize) -> Self {
        Self {
            nrows,
            ncols: 0,
            col_ptr: vec![0],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// `[A  −I]` stored by columns and by rows, for the `m × n` matrix `A`
    /// given by its rows: row `i` is `terms[row_ptr[i]..row_ptr[i + 1]]`,
    /// sorted by column, with no repeated column. Slack column `n + i` holds
    /// `−1` at row `i`. One pass counts the column lengths and one pass over
    /// the rows fills both copies, so column `j` lists its rows ascending and
    /// row `i` (column `i` of the second matrix) its columns ascending, the
    /// slack last.
    pub(crate) fn with_slacks(n: usize, row_ptr: &[usize], terms: &[(usize, f64)]) -> (Self, Self) {
        let m = row_ptr.len() - 1;
        let ncols = n + m;
        let nnz = terms.len() + m;
        // Column `j`'s length goes to `col_ptr[j + 1]`; after the prefix
        // sum `col_ptr[j]` is its start, used as its fill cursor and shifted
        // back into place afterwards.
        let mut col_ptr = vec![0usize; ncols + 1];
        for &(j, _) in terms {
            col_ptr[j + 1] += 1;
        }
        col_ptr[n + 1..].fill(1);
        for j in 0..ncols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut by_row = Self {
            nrows: ncols,
            ncols: m,
            col_ptr: Vec::with_capacity(m + 1),
            row_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        };
        by_row.col_ptr.push(0);
        for i in 0..m {
            let slack = std::iter::once((n + i, -1.0));
            for (j, v) in terms[row_ptr[i]..row_ptr[i + 1]]
                .iter()
                .copied()
                .chain(slack)
            {
                let p = col_ptr[j];
                row_idx[p] = i;
                values[p] = v;
                col_ptr[j] += 1;
                by_row.row_idx.push(j);
                by_row.values.push(v);
            }
            by_row.col_ptr.push(by_row.row_idx.len());
        }
        col_ptr.copy_within(0..ncols, 1);
        col_ptr[0] = 0;
        let by_col = Self {
            nrows: m,
            ncols,
            col_ptr,
            row_idx,
            values,
        };
        (by_col, by_row)
    }

    /// Identity-free access to the shape.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of structurally stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Heap bytes held by the three backing vectors (capacities, not
    /// lengths) — the structural-memory gauge the telemetry layer exports.
    pub fn memory_bytes(&self) -> usize {
        self.col_ptr.capacity() * std::mem::size_of::<usize>()
            + self.row_idx.capacity() * std::mem::size_of::<usize>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }

    /// Sparse view of column `c` as parallel `(row, value)` slices.
    pub fn column(&self, c: usize) -> (&[usize], &[f64]) {
        let span = self.col_ptr[c]..self.col_ptr[c + 1];
        (&self.row_idx[span.clone()], &self.values[span])
    }

    /// Appends a new rightmost column given `(row, value)` entries
    /// (must be sorted by row, duplicate-free).
    pub fn push_column(&mut self, entries: &[(usize, f64)]) {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        for &(r, v) in entries {
            assert!(r < self.nrows, "row index out of bounds");
            if v != 0.0 {
                self.row_idx.push(r);
                self.values.push(v);
            }
        }
        self.ncols += 1;
        self.col_ptr.push(self.row_idx.len());
    }

    /// Sparse dot product `y' A_c` of a dense vector with column `c`.
    pub fn column_dot(&self, c: usize, y: &[f64]) -> f64 {
        let (rows, vals) = self.column(c);
        let mut acc = 0.0;
        for (&r, &v) in rows.iter().zip(vals) {
            acc += y[r] * v;
        }
        acc
    }

    /// `out += scale * A_c` for dense `out`.
    pub fn axpy_column(&self, c: usize, scale: f64, out: &mut [f64]) {
        let (rows, vals) = self.column(c);
        for (&r, &v) in rows.iter().zip(vals) {
            out[r] += scale * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpProblem, VarId};

    /// The column-wise `[A  −I]` of the `nrows × ncols` matrix `A` given as
    /// `(row, column, value)` triplets, entered row by row through
    /// `LpProblem::add_row`.
    fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> CscMatrix {
        let mut lp = LpProblem::new();
        let x: Vec<VarId> = (0..ncols).map(|_| lp.add_var(0.0, 1.0, 0.0)).collect();
        for i in 0..nrows {
            let terms: Vec<(VarId, f64)> = triplets
                .iter()
                .filter(|t| t.0 == i)
                .map(|&(_, j, v)| (x[j], v))
                .collect();
            lp.add_le(&terms, 1.0);
        }
        let (row_ptr, terms) = lp.row_store();
        CscMatrix::with_slacks(ncols, row_ptr, terms).0
    }

    #[test]
    fn triplet_compression_sums_duplicates() {
        let m = from_triplets(3, 2, &[(0, 0, 1.0), (0, 0, 2.0), (2, 1, -1.0), (1, 1, 4.0)]);
        assert_eq!(m.nnz(), 3 + 3, "three entries and one slack per row");
        let (rows, vals) = m.column(0);
        assert_eq!(rows, &[0]);
        assert_eq!(vals, &[3.0]);
        let (rows, vals) = m.column(1);
        assert_eq!(rows, &[1, 2]);
        assert_eq!(vals, &[4.0, -1.0]);
    }

    #[test]
    fn triplet_drops_cancelling_entries() {
        let m = from_triplets(2, 1, &[(0, 0, 1.5), (0, 0, -1.5), (1, 0, 2.0)]);
        assert_eq!(m.nnz(), 1 + 2, "one entry and one slack per row");
        let (rows, _) = m.column(0);
        assert_eq!(rows, &[1]);
    }

    #[test]
    fn push_column_and_dot() {
        let mut m = CscMatrix::empty(3);
        m.push_column(&[(0, 1.0), (2, 3.0)]);
        m.push_column(&[(1, -2.0)]);
        assert_eq!(m.ncols(), 2);
        let y = [1.0, 10.0, 100.0];
        assert_eq!(m.column_dot(0, &y), 301.0);
        assert_eq!(m.column_dot(1, &y), -20.0);
    }

    #[test]
    fn zero_entries_are_skipped() {
        let mut m = CscMatrix::empty(2);
        m.push_column(&[(0, 0.0), (1, 2.0)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.column(0), (&[1][..], &[2.0][..]));
    }
}
