//! User-facing linear-program definition.
//!
//! An [`LpProblem`] is `minimize c'x  subject to  rlo ≤ Ax ≤ rup,  l ≤ x ≤ u`.
//! Range rows unify the three constraint senses: `≤ b` is `(-∞, b]`, `≥ b` is
//! `[b, ∞)` and `= b` is `[b, b]`. Maximization is handled by callers negating
//! the objective (the MIP layer does this).

/// Positive infinity used to mark absent bounds.
pub const INF: f64 = f64::INFINITY;

/// Index of a variable within an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Index of a row (constraint) within an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub usize);

/// A linear program in "computational form": bounds on variables and on row
/// activities.
#[derive(Debug, Clone)]
pub struct LpProblem {
    obj: Vec<f64>,
    var_lo: Vec<f64>,
    var_up: Vec<f64>,
    row_lo: Vec<f64>,
    row_up: Vec<f64>,
    /// Row `i` holds `terms[row_ptr[i]..row_ptr[i + 1]]`.
    row_ptr: Vec<usize>,
    /// Every row's `(column, coefficient)` terms, row after row, each row
    /// sorted by column with no repeated column and no zero.
    terms: Vec<(usize, f64)>,
    /// Constant added to the objective value (useful after presolve).
    obj_offset: f64,
}

impl Default for LpProblem {
    fn default() -> Self {
        Self {
            obj: Vec::new(),
            var_lo: Vec::new(),
            var_up: Vec::new(),
            row_lo: Vec::new(),
            row_up: Vec::new(),
            row_ptr: vec![0],
            terms: Vec::new(),
            obj_offset: 0.0,
        }
    }
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `[lo, up]` and objective coefficient `obj`.
    pub fn add_var(&mut self, lo: f64, up: f64, obj: f64) -> VarId {
        assert!(lo <= up, "variable bounds crossed: [{lo}, {up}]");
        assert!(!lo.is_nan() && !up.is_nan() && obj.is_finite());
        self.var_lo.push(lo);
        self.var_up.push(up);
        self.obj.push(obj);
        VarId(self.obj.len() - 1)
    }

    /// Adds a row with activity bounds `[lo, up]` over the given terms,
    /// appended to the row store and tidied there: zero coefficients are
    /// skipped, the terms sorted by column, duplicate variable references
    /// summed in that order and terms that sum to zero dropped.
    pub fn add_row(&mut self, lo: f64, up: f64, terms: &[(VarId, f64)]) -> RowId {
        assert!(lo <= up, "row bounds crossed: [{lo}, {up}]");
        let start = self.terms.len();
        for &(VarId(j), c) in terms {
            if c != 0.0 {
                assert!(j < self.num_vars(), "row references unknown variable");
                assert!(c.is_finite(), "non-finite row coefficient");
                self.terms.push((j, c));
            }
        }
        self.terms[start..].sort_unstable_by_key(|&(j, _)| j);
        let mut end = start;
        let mut k = start;
        while k < self.terms.len() {
            let (j, mut sum) = self.terms[k];
            k += 1;
            while k < self.terms.len() && self.terms[k].0 == j {
                sum += self.terms[k].1;
                k += 1;
            }
            if sum != 0.0 {
                self.terms[end] = (j, sum);
                end += 1;
            }
        }
        self.terms.truncate(end);
        self.row_ptr.push(end);
        self.row_lo.push(lo);
        self.row_up.push(up);
        RowId(self.row_lo.len() - 1)
    }

    /// Convenience: `terms ≤ rhs`.
    pub fn add_le(&mut self, terms: &[(VarId, f64)], rhs: f64) -> RowId {
        self.add_row(-INF, rhs, terms)
    }

    /// Convenience: `terms ≥ rhs`.
    pub fn add_ge(&mut self, terms: &[(VarId, f64)], rhs: f64) -> RowId {
        self.add_row(rhs, INF, terms)
    }

    /// Convenience: `terms = rhs`.
    pub fn add_eq(&mut self, terms: &[(VarId, f64)], rhs: f64) -> RowId {
        self.add_row(rhs, rhs, terms)
    }

    /// Overwrites the bounds of variable `v`.
    pub fn set_var_bounds(&mut self, v: VarId, lo: f64, up: f64) {
        assert!(lo <= up, "variable bounds crossed: [{lo}, {up}]");
        self.var_lo[v.0] = lo;
        self.var_up[v.0] = up;
    }

    /// Overwrites the objective coefficient of variable `v`.
    pub fn set_obj(&mut self, v: VarId, obj: f64) {
        assert!(obj.is_finite());
        self.obj[v.0] = obj;
    }

    /// Adds a constant to every reported objective value.
    pub fn set_obj_offset(&mut self, offset: f64) {
        self.obj_offset = offset;
    }

    /// The constant objective offset.
    pub fn obj_offset(&self) -> f64 {
        self.obj_offset
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.row_lo.len()
    }

    /// Heap bytes held by the problem data (vector capacities): objective,
    /// bound arrays and the row store. Feeds the `mem.mip.model_bytes`
    /// gauge.
    pub fn memory_bytes(&self) -> usize {
        (self.obj.capacity()
            + self.var_lo.capacity()
            + self.var_up.capacity()
            + self.row_lo.capacity()
            + self.row_up.capacity())
            * std::mem::size_of::<f64>()
            + self.row_ptr.capacity() * std::mem::size_of::<usize>()
            + self.terms.capacity() * std::mem::size_of::<(usize, f64)>()
    }

    /// Objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.obj
    }

    /// Lower variable bounds.
    pub fn var_lower(&self) -> &[f64] {
        &self.var_lo
    }

    /// Upper variable bounds.
    pub fn var_upper(&self) -> &[f64] {
        &self.var_up
    }

    /// Lower row-activity bounds.
    pub fn row_lower(&self) -> &[f64] {
        &self.row_lo
    }

    /// Upper row-activity bounds.
    pub fn row_upper(&self) -> &[f64] {
        &self.row_up
    }

    /// The terms of row `r`, sorted by column.
    pub fn row(&self, r: RowId) -> &[(usize, f64)] {
        &self.terms[self.row_ptr[r.0]..self.row_ptr[r.0 + 1]]
    }

    /// The row store: row `i` is `terms[row_ptr[i]..row_ptr[i + 1]]`.
    pub(crate) fn row_store(&self) -> (&[usize], &[(usize, f64)]) {
        (&self.row_ptr, &self.terms)
    }

    /// Objective value of a point (including offset); no feasibility check.
    pub fn eval_objective(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars());
        self.obj_offset + self.obj.iter().zip(x).map(|(c, v)| c * v).sum::<f64>()
    }

    /// Maximum violation of variable bounds and row-activity bounds at `x`.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars());
        let mut worst = 0f64;
        for ((&xj, &lo), &up) in x.iter().zip(&self.var_lo).zip(&self.var_up) {
            worst = worst.max(lo - xj).max(xj - up);
        }
        for i in 0..self.num_rows() {
            let act: f64 = self.row(RowId(i)).iter().map(|&(j, c)| c * x[j]).sum();
            worst = worst.max(self.row_lo[i] - act).max(act - self.row_up[i]);
        }
        worst.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_shapes() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, INF, 1.0);
        let y = lp.add_var(0.0, 2.0, -1.0);
        lp.add_le(&[(x, 1.0), (y, 1.0)], 3.0);
        lp.add_eq(&[(x, 2.0)], 4.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_rows(), 2);
        assert_eq!(
            lp.row_store(),
            (&[0, 2, 3][..], &[(0, 1.0), (1, 1.0), (0, 2.0)][..])
        );
        assert_eq!(lp.row_lower()[0], -INF);
        assert_eq!(lp.row_upper()[1], 4.0);
    }

    /// Terms come out sorted by column, duplicates summed, in every row of
    /// the store.
    #[test]
    fn duplicate_terms_merge() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, 1.0, 0.0);
        let y = lp.add_var(0.0, 1.0, 0.0);
        let r = lp.add_le(&[(x, 1.0), (x, 2.0)], 5.0);
        assert_eq!(lp.row(r), &[(0, 3.0)]);
        let r = lp.add_le(&[(y, 4.0), (x, 1.0), (y, -1.0), (x, 2.0)], 5.0);
        assert_eq!(lp.row(r), &[(0, 3.0), (1, 3.0)]);
        assert_eq!(lp.row(RowId(0)), &[(0, 3.0)]);
    }

    #[test]
    fn cancelling_terms_vanish() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, 1.0, 0.0);
        let y = lp.add_var(0.0, 1.0, 0.0);
        let r = lp.add_le(&[(x, 1.0), (x, -1.0), (y, 1.0)], 5.0);
        assert_eq!(lp.row(r), &[(1, 1.0)]);
        let r = lp.add_le(&[(y, 1.5), (x, 2.0), (y, -1.5)], 5.0);
        assert_eq!(lp.row(r), &[(0, 2.0)]);
    }

    /// A zero coefficient is no term; a row of them is an empty row, and
    /// the rows after it keep their own terms.
    #[test]
    fn zero_terms_are_skipped() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, 1.0, 0.0);
        let empty = lp.add_le(&[(x, 0.0)], 1.0);
        let r = lp.add_le(&[(x, 0.0), (x, 2.0)], 1.0);
        assert_eq!(lp.row(empty), &[]);
        assert_eq!(lp.row(r), &[(0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn unknown_variable_rejected() {
        let mut lp = LpProblem::new();
        lp.add_var(0.0, 1.0, 0.0);
        lp.add_le(&[(VarId(1), 1.0)], 1.0);
    }

    #[test]
    fn violation_measures_rows_and_bounds() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, 1.0, 0.0);
        lp.add_ge(&[(x, 1.0)], 2.0);
        // x = 1 satisfies bounds but violates the row by 1.
        assert!((lp.max_violation(&[1.0]) - 1.0).abs() < 1e-12);
        // x = 3 violates its upper bound by 2.
        assert!((lp.max_violation(&[3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bounds crossed")]
    fn crossed_bounds_rejected() {
        let mut lp = LpProblem::new();
        lp.add_var(1.0, 0.0, 0.0);
    }

    #[test]
    fn objective_offset_applied() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, 1.0, 2.0);
        lp.set_obj_offset(10.0);
        assert_eq!(lp.eval_objective(&[1.0]), 12.0);
        let _ = x;
    }
}
