//! Minimal sparse-matrix support for the simplex solver.
//!
//! The solver stores the constraint matrix column-wise ([`CscMatrix`]) because
//! both pricing (`c_j - y'A_j`) and the forward transformation (`B⁻¹ A_j`)
//! traverse individual columns. Matrices are assembled from a [`TripletMatrix`]
//! which tolerates duplicate entries (summed on compression).

/// Coordinate-format accumulator for building sparse matrices.
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl TripletMatrix {
    /// Creates an empty `nrows × ncols` accumulator.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Adds `val` at `(row, col)`. Duplicates are summed during compression.
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        assert!(
            row < self.nrows && col < self.ncols,
            "triplet out of bounds"
        );
        if val != 0.0 {
            self.rows.push(row);
            self.cols.push(col);
            self.vals.push(val);
        }
    }

    /// Number of stored (possibly duplicate) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Compresses into column-major form, summing duplicates and dropping
    /// entries that cancel to zero.
    pub fn to_csc(&self) -> CscMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.cols {
            counts[c + 1] += 1;
        }
        for c in 0..self.ncols {
            counts[c + 1] += counts[c];
        }
        let mut row_idx = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        let mut cursor = counts.clone();
        for k in 0..self.nnz() {
            let c = self.cols[k];
            let slot = cursor[c];
            row_idx[slot] = self.rows[k];
            values[slot] = self.vals[k];
            cursor[c] += 1;
        }
        // Sort each column by row index and merge duplicates.
        let mut col_ptr = vec![0usize; self.ncols + 1];
        let mut out_rows = Vec::with_capacity(self.nnz());
        let mut out_vals = Vec::with_capacity(self.nnz());
        for c in 0..self.ncols {
            let span = counts[c]..counts[c + 1];
            let mut entries: Vec<(usize, f64)> = span.map(|k| (row_idx[k], values[k])).collect();
            entries.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < entries.len() {
                let r = entries[i].0;
                let mut v = entries[i].1;
                let mut j = i + 1;
                while j < entries.len() && entries[j].0 == r {
                    v += entries[j].1;
                    j += 1;
                }
                if v != 0.0 {
                    out_rows.push(r);
                    out_vals.push(v);
                }
                i = j;
            }
            col_ptr[c + 1] = out_rows.len();
        }
        CscMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            col_ptr,
            row_idx: out_rows,
            values: out_vals,
        }
    }
}

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

    /// The transpose, i.e. this matrix stored by rows: column `r` of the
    /// result holds row `r` of `self` as `(column, value)` pairs in
    /// ascending column order.
    pub fn transpose(&self) -> CscMatrix {
        let mut col_ptr = vec![0usize; self.nrows + 1];
        for &r in &self.row_idx {
            col_ptr[r + 1] += 1;
        }
        for r in 0..self.nrows {
            col_ptr[r + 1] += col_ptr[r];
        }
        let mut next = col_ptr.clone();
        let mut row_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for c in 0..self.ncols {
            let (rows, vals) = self.column(c);
            for (&r, &v) in rows.iter().zip(vals) {
                row_idx[next[r]] = c;
                values[next[r]] = v;
                next[r] += 1;
            }
        }
        CscMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            col_ptr,
            row_idx,
            values,
        }
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

    /// Dense `A x` product (used by tests and the solution checker).
    pub fn mul_dense(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut out = vec![0.0; self.nrows];
        for (c, &xc) in x.iter().enumerate() {
            if xc != 0.0 {
                self.axpy_column(c, xc, &mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplet_compression_sums_duplicates() {
        let mut t = TripletMatrix::new(3, 2);
        t.push(0, 0, 1.0);
        t.push(0, 0, 2.0);
        t.push(2, 1, -1.0);
        t.push(1, 1, 4.0);
        let m = t.to_csc();
        assert_eq!(m.nnz(), 3);
        let (rows, vals) = m.column(0);
        assert_eq!(rows, &[0]);
        assert_eq!(vals, &[3.0]);
        let (rows, vals) = m.column(1);
        assert_eq!(rows, &[1, 2]);
        assert_eq!(vals, &[4.0, -1.0]);
    }

    #[test]
    fn triplet_drops_cancelling_entries() {
        let mut t = TripletMatrix::new(2, 1);
        t.push(0, 0, 1.5);
        t.push(0, 0, -1.5);
        t.push(1, 0, 2.0);
        let m = t.to_csc();
        assert_eq!(m.nnz(), 1);
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
    fn transpose_stores_rows_in_column_order() {
        let mut t = TripletMatrix::new(2, 3);
        t.push(1, 0, 1.0);
        t.push(0, 2, 2.0);
        t.push(1, 2, 3.0);
        let rows = t.to_csc().transpose();
        assert_eq!((rows.nrows(), rows.ncols(), rows.nnz()), (3, 2, 3));
        assert_eq!(rows.column(0), (&[2][..], &[2.0][..]));
        assert_eq!(rows.column(1), (&[0, 2][..], &[1.0, 3.0][..]));
    }

    #[test]
    fn mul_dense_matches_manual() {
        let mut t = TripletMatrix::new(2, 3);
        t.push(0, 0, 1.0);
        t.push(0, 2, 2.0);
        t.push(1, 1, 3.0);
        let m = t.to_csc();
        assert_eq!(m.mul_dense(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
        assert_eq!(m.mul_dense(&[0.0, 2.0, -1.0]), vec![-2.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_bounds_checked() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn zero_entries_are_skipped() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 0.0);
        assert_eq!(t.nnz(), 0);
    }
}
