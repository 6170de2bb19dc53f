//! Sparse linear algebra for repeated solves on a fixed pattern.
//!
//! MNA matrices have a sparsity pattern fixed by the netlist topology:
//! every Newton iteration, sweep point and transient step restamps the
//! *same* entries with new values. This module exploits that structure
//! the way production SPICE solvers (sparse1.3, KLU) do:
//!
//! * [`SparseMatrix`] — compressed-sparse-row storage over an immutable
//!   pattern. Values are restamped in place ([`SparseMatrix::add_at`],
//!   [`SparseMatrix::zero_values`]) without touching the index arrays,
//!   so the assembly loop allocates nothing.
//! * [`SparseLu::factor`] — the one-time *symbolic + numeric* analysis:
//!   LU elimination in natural column order with threshold partial
//!   pivoting (row pivoting only) and a Markowitz-style minimum-fill
//!   tie-break, recording the pivot order and the L/U fill-in pattern.
//!   A column → rows index, grown as fill is inserted, hands column `k`
//!   only the rows that hold an entry in it, so the analysis costs
//!   O(visited entries + fill updates) instead of an O(n²) scan of
//!   every row per column. Visit order cannot change the outcome (the
//!   column maximum, the pivot rule and each row's elimination are all
//!   order-free), so the pivots and every factor bit are those of the
//!   full scan. [`ComplexSparseLu::factor`] runs the same kernel.
//! * [`SparseLu::refactor`] — the fast path: a numeric-only
//!   re-elimination that reuses the recorded pivot order and fill
//!   pattern, allocation-free. When a reused pivot collapses it reports
//!   [`SolveError::Singular`]; callers fall back to a full
//!   [`SparseLu::factor`] to re-pivot.
//!
//! Because columns are never permuted, the `step` of a
//! [`SolveError::Singular`] is a variable index — exactly the contract
//! of the dense [`crate::lu::LuFactor`] — and [`SparseLu::permutation`],
//! [`SparseLu::det`] and [`SparseLu::pivot_ratio`] mirror the dense API
//! so diagnostics built on it (e.g. the near-singular lint) work
//! unchanged on either path.

use crate::complex::Complex;
use crate::lu::SolveError;
use crate::matrix::{ComplexMatrix, Matrix};
use std::ops::{AddAssign, Div, Mul, Neg, SubAssign};

/// Pivot magnitudes below this are treated as singular (the dense
/// solver's threshold).
const PIVOT_EPS: f64 = 1e-300;

/// Relative threshold for pivot admissibility: a candidate row is
/// acceptable when its column-`k` magnitude is at least this fraction of
/// the column maximum. Within the admissible set the row with the
/// fewest active nonzeros wins (Markowitz-style, with the natural
/// column order fixed), which bounds element growth while keeping
/// fill-in low.
const PIVOT_TOL: f64 = 1e-3;

/// A sparse real matrix in compressed-sparse-row form over a fixed
/// pattern.
///
/// The pattern (row pointers + column indices) is built once from the
/// set of structurally-possible entries; values are then restamped in
/// place as often as needed. Entries may hold explicit zeros — e.g. a
/// capacitor slot stamped only in transient mode — which keeps one
/// pattern valid for every analysis of a netlist.
///
/// # Example
///
/// ```
/// use ulp_num::sparse::{SparseMatrix, SparseLu};
///
/// # fn main() -> Result<(), ulp_num::lu::SolveError> {
/// let mut a = SparseMatrix::from_pattern(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
/// a.add_at(0, 0, 2.0);
/// a.add_at(1, 1, 4.0);
/// let mut lu = SparseLu::factor(&a)?;
/// let mut x = Vec::new();
/// lu.solve_into(&[2.0, 8.0], &mut x)?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// // Restamp new values on the same pattern: numeric-only refactor.
/// a.zero_values();
/// a.add_at(0, 0, 4.0);
/// a.add_at(1, 1, 8.0);
/// lu.refactor(&a)?;
/// lu.solve_into(&[4.0, 16.0], &mut x)?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

/// Sorts and deduplicates raw `(row, col)` coordinates into CSR index
/// arrays. Shared by the real and complex constructors.
fn build_pattern(n: usize, entries: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
    let mut coords: Vec<(u32, u32)> = entries.to_vec();
    for &(r, c) in &coords {
        assert!(
            (r as usize) < n && (c as usize) < n,
            "pattern entry ({r}, {c}) outside {n}x{n}"
        );
    }
    coords.sort_unstable();
    coords.dedup();
    let mut row_ptr = vec![0usize; n + 1];
    let mut cols = Vec::with_capacity(coords.len());
    for &(r, c) in &coords {
        row_ptr[r as usize + 1] += 1;
        cols.push(c);
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    (row_ptr, cols)
}

impl SparseMatrix {
    /// Builds an `n × n` matrix of zeros over the pattern given as
    /// `(row, col)` coordinates (duplicates allowed, any order).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is outside the matrix.
    pub fn from_pattern(n: usize, entries: &[(u32, u32)]) -> Self {
        let (row_ptr, cols) = build_pattern(n, entries);
        let vals = vec![0.0; cols.len()];
        SparseMatrix { n, row_ptr, cols, vals }
    }

    /// Builds a sparse copy of a dense square matrix, taking its nonzero
    /// entries as the pattern.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn from_dense(a: &Matrix) -> Self {
        assert!(a.is_square(), "from_dense needs a square matrix");
        let n = a.rows();
        let mut entries = Vec::new();
        for i in 0..n {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v != 0.0 {
                    entries.push((i as u32, j as u32));
                }
            }
        }
        let mut m = SparseMatrix::from_pattern(n, &entries);
        for i in 0..n {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v != 0.0 {
                    m.add_at(i, j, v);
                }
            }
        }
        m
    }

    /// Dimension of the (square) matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (structural) entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Resets every stored value to zero; the pattern is untouched.
    pub fn zero_values(&mut self) {
        self.vals.fill(0.0);
    }

    /// The storage index of entry `(row, col)`, if it is in the pattern.
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.cols[lo..hi]
            .binary_search(&(col as u32))
            .ok()
            .map(|k| lo + k)
    }

    /// Adds `v` to entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is not in the pattern — restamping must
    /// never discover entries the pattern pass missed.
    pub fn add_at(&mut self, row: usize, col: usize, v: f64) {
        let k = self
            .slot(row, col)
            .unwrap_or_else(|| panic!("entry ({row}, {col}) not in sparse pattern"));
        self.vals[k] += v;
    }

    /// The stored values, pattern order.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable access to the stored values (for slot-direct restamping).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Column indices and values of one row.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// `y = A·x` into a caller-owned buffer (resized to fit).
    pub fn mul_vec_into(&self, x: &[f64], y: &mut Vec<f64>) {
        assert_eq!(x.len(), self.n, "mul_vec dimension mismatch");
        y.clear();
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            let mut s = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                s += v * x[c as usize];
            }
            y.push(s);
        }
    }

    /// Expands to a dense matrix (test/diagnostic helper).
    ///
    /// # Panics
    ///
    /// Panics for an empty (0-dimensional) matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                m.add_at(i, c as usize, v);
            }
        }
        m
    }
}

/// The scalar arithmetic the shared LU kernel needs, for `f64` and
/// [`Complex`]. `mag` is the pivot-comparison magnitude — `|x|` for
/// reals, `|x|²` for complex, like the dense solvers — and `TOL` is
/// `PIVOT_TOL` in the same units.
trait Scalar:
    Copy + AddAssign + SubAssign + Mul<Output = Self> + Div<Output = Self> + Neg<Output = Self>
{
    const ZERO: Self;
    const TOL: f64;
    fn mag(self) -> f64;
    fn finite(self) -> bool;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const TOL: f64 = PIVOT_TOL;
    fn mag(self) -> f64 {
        self.abs()
    }
    fn finite(self) -> bool {
        self.is_finite()
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
    const TOL: f64 = PIVOT_TOL * PIVOT_TOL;
    fn mag(self) -> f64 {
        self.norm_sqr()
    }
    fn finite(self) -> bool {
        self.is_finite()
    }
}

/// One row of the elimination workspace used by the full factorization:
/// sorted `(col, value)` pairs, merged in place as fill arrives.
type WorkRow<T> = Vec<(u32, T)>;

/// End-of-list marker of [`ColumnIndex`].
const NIL: u32 = u32::MAX;

/// Column → rows index of the elimination workspace: for every column,
/// a singly linked list of the rows holding a structural entry there,
/// threaded through one flat `(row, next)` vector. Entries are only
/// ever added (fill), never removed — an explicit zero stays structural
/// — so row `i` is on column `c`'s list exactly when `rows[i]` holds
/// column `c`.
struct ColumnIndex {
    head: Vec<u32>,
    links: Vec<(u32, u32)>,
}

impl ColumnIndex {
    fn new<T>(rows: &[WorkRow<T>]) -> Self {
        let nnz = rows.iter().map(Vec::len).sum();
        let mut index = ColumnIndex {
            head: vec![NIL; rows.len()],
            links: Vec::with_capacity(nnz),
        };
        for (i, row) in rows.iter().enumerate() {
            for &(c, _) in row {
                index.push(c, i);
            }
        }
        index
    }

    fn push(&mut self, col: u32, row: usize) {
        let col = col as usize;
        self.links.push((row as u32, self.head[col]));
        self.head[col] = (self.links.len() - 1) as u32;
    }

    /// Every row with a structural entry in `col`, in no fixed order.
    fn rows(&self, col: usize) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.head[col];
        std::iter::from_fn(move || {
            let (row, next) = *self.links.get(at as usize)?;
            at = next;
            Some(row as usize)
        })
    }
}

/// The rows of a CSR matrix as elimination work rows.
fn work_rows<'a, T: Scalar + 'a>(
    n: usize,
    row: impl Fn(usize) -> (&'a [u32], &'a [T]),
) -> Vec<WorkRow<T>> {
    (0..n)
        .map(|i| {
            let (cols, vals) = row(i);
            cols.iter().copied().zip(vals.iter().copied()).collect()
        })
        .collect()
}

/// The one elimination kernel behind [`SparseLu::factor`] and
/// [`ComplexSparseLu::factor`]: right-looking elimination of `rows` in
/// natural column order with threshold partial pivoting. Returns the
/// pivot order (`perm[s]` = row chosen at step `s`) with every row
/// holding its L factors (columns below its step) and its U row.
///
/// Column `k` visits only the unassigned rows on its [`ColumnIndex`]
/// list, so a factorization costs O(visited entries + fill updates)
/// rather than the O(n²) of scanning every row per column. The visit
/// order does not change a single bit of the result:
///
/// * the column maximum is an `f64::max` over the same set of rows;
/// * the pivot is the lexicographic minimum of `(active entries, row)`
///   over the admissible rows — "sparsest row, smallest index on ties";
/// * each row is eliminated against the frozen pivot row independently
///   of every other row.
fn eliminate<T: Scalar>(
    mut rows: Vec<WorkRow<T>>,
) -> Result<(Vec<usize>, Vec<WorkRow<T>>), SolveError> {
    let n = rows.len();
    let mut index = ColumnIndex::new(&rows);
    // Count of already-eliminated (L-factor) entries per row, so the
    // Markowitz tie-break sees only the active region.
    let mut lower = vec![0usize; n];
    let mut assigned = vec![false; n];
    let mut perm = Vec::with_capacity(n);
    // This column's unassigned rows.
    let mut cands: Vec<usize> = Vec::new();

    for k in 0..n {
        cands.clear();
        cands.extend(index.rows(k).filter(|&i| !assigned[i]));
        // An unassigned row's entries left of column k are exactly its
        // `lower[i]` L factors (each was eliminated at its own step, and
        // fill only lands right of the pivot column), so its column-k
        // entry sits at position `lower[i]`.
        debug_assert!(cands.iter().all(|&i| rows[i][lower[i]].0 as usize == k));
        let at_k = |i: usize| rows[i][lower[i]].1;
        let col_max = cands.iter().fold(0.0f64, |m, &i| m.max(at_k(i).mag()));
        if col_max < PIVOT_EPS || !col_max.is_finite() {
            return Err(SolveError::Singular { step: k });
        }
        let (_, p) = cands
            .iter()
            .filter(|&&i| at_k(i).mag() >= T::TOL * col_max)
            .map(|&i| (rows[i].len() - lower[i], i))
            .min()
            .expect("col_max admits at least one candidate");
        assigned[p] = true;
        perm.push(p);
        let pivot = std::mem::take(&mut rows[p]);
        let pivot_val = pivot[lower[p]].1;
        let trailing = &pivot[lower[p] + 1..];
        for &i in cands.iter().filter(|&&i| i != p) {
            let q = lower[i];
            lower[i] += 1;
            let row = &mut rows[i];
            // The column-k entry becomes the L factor f; subtract f × the
            // trailing part of the pivot row, inserting fill to keep the
            // row sorted and the index complete.
            let f = row[q].1 / pivot_val;
            row[q].1 = f;
            for &(c, uv) in trailing {
                match row.binary_search_by_key(&c, |e| e.0) {
                    Ok(pos) => row[pos].1 -= f * uv,
                    Err(pos) => {
                        row.insert(pos, (c, -(f * uv)));
                        index.push(c, i);
                    }
                }
            }
        }
        rows[p] = pivot;
    }
    Ok((perm, rows))
}

/// The factors `P·A = L·U` shared by [`SparseLu`] and
/// [`ComplexSparseLu`], with the numeric refactorization and the
/// triangular solves.
#[derive(Debug, Clone)]
struct Factors<T> {
    n: usize,
    /// `perm[s]` = original row of `A` that became row `s` of `P·A = L·U`.
    perm: Vec<usize>,
    /// Strictly-lower factor rows (columns ascending), permuted order.
    l_ptr: Vec<usize>,
    l_cols: Vec<u32>,
    l_vals: Vec<T>,
    /// Upper factor rows including the diagonal (diagonal first).
    u_ptr: Vec<usize>,
    u_cols: Vec<u32>,
    u_vals: Vec<T>,
    /// Dense scatter workspace for [`Factors::refactor`].
    scratch: Vec<T>,
}

impl<T: Scalar> Factors<T> {
    /// Full factorization of the `n` CSR rows given by `row`.
    fn factor<'a>(n: usize, row: impl Fn(usize) -> (&'a [u32], &'a [T])) -> Result<Self, SolveError>
    where
        T: 'a,
    {
        let (perm, rows) = eliminate(work_rows(n, row))?;
        Ok(Factors::split(perm, &rows))
    }

    /// Assembles CSR factors in permuted row order: for the row chosen
    /// at step s, entries below column s are L factors, the rest is the
    /// U row (diagonal first by construction).
    fn split(perm: Vec<usize>, rows: &[WorkRow<T>]) -> Self {
        let n = perm.len();
        let l_nnz: usize = perm
            .iter()
            .enumerate()
            .map(|(s, &r)| rows[r].partition_point(|e| (e.0 as usize) < s))
            .sum();
        let u_nnz = rows.iter().map(Vec::len).sum::<usize>() - l_nnz;
        let mut lu = Factors {
            n,
            perm,
            l_ptr: Vec::with_capacity(n + 1),
            l_cols: Vec::with_capacity(l_nnz),
            l_vals: Vec::with_capacity(l_nnz),
            u_ptr: Vec::with_capacity(n + 1),
            u_cols: Vec::with_capacity(u_nnz),
            u_vals: Vec::with_capacity(u_nnz),
            scratch: vec![T::ZERO; n],
        };
        lu.l_ptr.push(0);
        lu.u_ptr.push(0);
        for s in 0..n {
            for &(c, v) in &rows[lu.perm[s]] {
                if (c as usize) < s {
                    lu.l_cols.push(c);
                    lu.l_vals.push(v);
                } else {
                    lu.u_cols.push(c);
                    lu.u_vals.push(v);
                }
            }
            lu.l_ptr.push(lu.l_cols.len());
            lu.u_ptr.push(lu.u_cols.len());
            debug_assert_eq!(lu.u_cols[lu.u_ptr[s]] as usize, s, "U diagonal first");
        }
        lu
    }

    /// Numeric-only re-elimination of the `n` CSR rows given by `row`
    /// on the recorded pivot order and fill pattern.
    fn refactor<'a>(
        &mut self,
        n: usize,
        row: impl Fn(usize) -> (&'a [u32], &'a [T]),
    ) -> Result<(), SolveError>
    where
        T: 'a,
    {
        if n != self.n {
            return Err(SolveError::DimensionMismatch {
                expected: self.n,
                actual: n,
            });
        }
        for s in 0..self.n {
            // Scatter: clear the union pattern of this row, load A's row.
            for &c in &self.l_cols[self.l_ptr[s]..self.l_ptr[s + 1]] {
                self.scratch[c as usize] = T::ZERO;
            }
            for &c in &self.u_cols[self.u_ptr[s]..self.u_ptr[s + 1]] {
                self.scratch[c as usize] = T::ZERO;
            }
            let (cols, vals) = row(self.perm[s]);
            for (&c, &v) in cols.iter().zip(vals) {
                self.scratch[c as usize] += v;
            }
            // Eliminate with the recorded column order.
            for li in self.l_ptr[s]..self.l_ptr[s + 1] {
                let j = self.l_cols[li] as usize;
                let f = self.scratch[j] / self.u_vals[self.u_ptr[j]];
                self.l_vals[li] = f;
                for ui in self.u_ptr[j] + 1..self.u_ptr[j + 1] {
                    self.scratch[self.u_cols[ui] as usize] -= f * self.u_vals[ui];
                }
            }
            for ui in self.u_ptr[s]..self.u_ptr[s + 1] {
                self.u_vals[ui] = self.scratch[self.u_cols[ui] as usize];
            }
            let d = self.u_vals[self.u_ptr[s]];
            if d.mag() < PIVOT_EPS || !d.finite() {
                return Err(SolveError::Singular { step: s });
            }
        }
        Ok(())
    }

    /// The pivot (U diagonal) of step `s`.
    fn pivot(&self, s: usize) -> T {
        self.u_vals[self.u_ptr[s]]
    }

    fn solve_into(&self, b: &[T], x: &mut Vec<T>) -> Result<(), SolveError> {
        if b.len() != self.n {
            return Err(SolveError::DimensionMismatch {
                expected: self.n,
                actual: b.len(),
            });
        }
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        for s in 0..self.n {
            let mut acc = x[s];
            for li in self.l_ptr[s]..self.l_ptr[s + 1] {
                acc -= self.l_vals[li] * x[self.l_cols[li] as usize];
            }
            x[s] = acc;
        }
        for s in (0..self.n).rev() {
            let mut acc = x[s];
            for ui in self.u_ptr[s] + 1..self.u_ptr[s + 1] {
                acc -= self.u_vals[ui] * x[self.u_cols[ui] as usize];
            }
            x[s] = acc / self.pivot(s);
        }
        Ok(())
    }
}

/// Permutation parity: `+1.0` for an even permutation, `-1.0` for odd.
fn parity(perm: &[usize]) -> f64 {
    let mut seen = vec![false; perm.len()];
    let mut sign = 1.0;
    for start in 0..perm.len() {
        if seen[start] {
            continue;
        }
        let mut len = 0usize;
        let mut i = start;
        while !seen[i] {
            seen[i] = true;
            i = perm[i];
            len += 1;
        }
        if len.is_multiple_of(2) {
            sign = -sign;
        }
    }
    sign
}

/// LU factorization of a [`SparseMatrix`] with a reusable pivot order
/// and fill-in pattern.
///
/// [`SparseLu::factor`] performs the full analysis (pivot selection +
/// fill discovery + numeric elimination); [`SparseLu::refactor`] redoes
/// only the numerics for new values on the same pattern, and
/// [`SparseLu::solve_into`] back-substitutes without allocating. The
/// `permutation`/`det`/`pivot_ratio` accessors mirror
/// [`crate::lu::LuFactor`].
#[derive(Debug, Clone)]
pub struct SparseLu {
    lu: Factors<f64>,
    sign: f64,
}

impl SparseLu {
    /// Full factorization of `a` as `P·A = L·U`: elimination in natural
    /// column order with threshold partial pivoting (`PIVOT_TOL` = 10⁻³)
    /// and a minimum-row-count tie-break (smallest row index on ties),
    /// recording pivot order and fill-in for later
    /// [`SparseLu::refactor`] calls.
    ///
    /// A column → rows index, grown as fill arrives, hands each column
    /// only the rows that hold an entry in it, so the cost is
    /// O(visited entries + fill updates), not O(n²): near-linear on the
    /// low-fill chains MNA produces. The pivots, the L/U patterns and
    /// every value are bit-identical to scanning all rows per column,
    /// because neither the column maximum, nor the pivot rule, nor any
    /// row's elimination depends on the order rows are visited in.
    ///
    /// # Errors
    ///
    /// [`SolveError::Singular`] when a column has no admissible pivot;
    /// `step` is the column — i.e. variable — index, exactly as for the
    /// dense solver.
    pub fn factor(a: &SparseMatrix) -> Result<Self, SolveError> {
        let lu = Factors::factor(a.dim(), |i| a.row(i))?;
        Ok(SparseLu {
            sign: parity(&lu.perm),
            lu,
        })
    }

    /// Numeric-only refactorization: re-eliminates `a`'s current values
    /// using the pivot order and fill pattern recorded by
    /// [`SparseLu::factor`]. Allocation-free.
    ///
    /// # Errors
    ///
    /// [`SolveError::DimensionMismatch`] if `a` has a different
    /// dimension; [`SolveError::Singular`] when a reused pivot has
    /// collapsed — the caller should then re-run [`SparseLu::factor`]
    /// to choose fresh pivots (or report the system genuinely singular).
    pub fn refactor(&mut self, a: &SparseMatrix) -> Result<(), SolveError> {
        self.lu.refactor(a.dim(), |i| a.row(i))
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.lu.n
    }

    /// The row permutation: `permutation()[i]` is the original row of
    /// `A` that ended up as row `i` of `P·A = L·U` (columns are never
    /// permuted — same contract as [`crate::lu::LuFactor`]).
    pub fn permutation(&self) -> &[usize] {
        &self.lu.perm
    }

    /// Determinant of the original matrix (product of pivots × the
    /// permutation sign).
    pub fn det(&self) -> f64 {
        (0..self.lu.n).fold(self.sign, |acc, s| acc * self.lu.pivot(s))
    }

    /// Ratio of the largest to the smallest pivot magnitude — the same
    /// cheap near-singularity measure as
    /// [`crate::lu::LuFactor::pivot_ratio`]. Returns 1.0 when empty.
    pub fn pivot_ratio(&self) -> f64 {
        if self.lu.n == 0 {
            return 1.0;
        }
        let mut max = 0.0f64;
        let mut min = f64::INFINITY;
        for s in 0..self.lu.n {
            let p = self.lu.pivot(s).abs();
            max = max.max(p);
            min = min.min(p);
        }
        max / min
    }

    /// Solves `A·x = b` into a caller-owned buffer (allocation-free once
    /// the buffer has capacity).
    ///
    /// # Errors
    ///
    /// [`SolveError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), SolveError> {
        self.lu.solve_into(b, x)
    }

    /// Solves `A·x = b`, allocating the result (dense-API parity).
    ///
    /// # Errors
    ///
    /// As for [`SparseLu::solve_into`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        let mut x = Vec::with_capacity(self.lu.n);
        self.solve_into(b, &mut x)?;
        Ok(x)
    }
}

/// A sparse complex matrix over a fixed pattern (the AC small-signal
/// twin of [`SparseMatrix`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexSparseMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<Complex>,
}

impl ComplexSparseMatrix {
    /// Builds an `n × n` matrix of zeros over the given coordinate
    /// pattern (duplicates allowed, any order).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is outside the matrix.
    pub fn from_pattern(n: usize, entries: &[(u32, u32)]) -> Self {
        let (row_ptr, cols) = build_pattern(n, entries);
        let vals = vec![Complex::ZERO; cols.len()];
        ComplexSparseMatrix { n, row_ptr, cols, vals }
    }

    /// Builds a sparse copy of a dense complex square matrix from its
    /// nonzero entries.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn from_dense(a: &ComplexMatrix) -> Self {
        assert_eq!(a.rows(), a.cols(), "from_dense needs a square matrix");
        let n = a.rows();
        let mut entries = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if a[(i, j)] != Complex::ZERO {
                    entries.push((i as u32, j as u32));
                }
            }
        }
        let mut m = ComplexSparseMatrix::from_pattern(n, &entries);
        for i in 0..n {
            for j in 0..n {
                if a[(i, j)] != Complex::ZERO {
                    m.add_at(i, j, a[(i, j)]);
                }
            }
        }
        m
    }

    /// Dimension of the (square) matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (structural) entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Resets every stored value to zero; the pattern is untouched.
    pub fn zero_values(&mut self) {
        self.vals.fill(Complex::ZERO);
    }

    /// Adds `v` to entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is not in the pattern.
    pub fn add_at(&mut self, row: usize, col: usize, v: Complex) {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        let k = self.cols[lo..hi]
            .binary_search(&(col as u32))
            .unwrap_or_else(|_| panic!("entry ({row}, {col}) not in sparse pattern"));
        self.vals[lo + k] += v;
    }

    /// Column indices and values of one row.
    pub fn row(&self, i: usize) -> (&[u32], &[Complex]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }
}

/// LU factorization of a [`ComplexSparseMatrix`] with a reusable pivot
/// order — the AC twin of [`SparseLu`], used to factor the small-signal
/// system once per sweep and refactor per frequency.
#[derive(Debug, Clone)]
pub struct ComplexSparseLu {
    lu: Factors<Complex>,
}

impl ComplexSparseLu {
    /// Full factorization with threshold partial pivoting (magnitudes
    /// compared via `norm_sqr`, like the dense complex solver), by the
    /// same column-indexed kernel as [`SparseLu::factor`].
    ///
    /// # Errors
    ///
    /// [`SolveError::Singular`] when a column has no admissible pivot.
    pub fn factor(a: &ComplexSparseMatrix) -> Result<Self, SolveError> {
        Ok(ComplexSparseLu {
            lu: Factors::factor(a.dim(), |i| a.row(i))?,
        })
    }

    /// Numeric-only refactorization on the recorded pivot order and fill
    /// pattern; allocation-free.
    ///
    /// # Errors
    ///
    /// As for [`SparseLu::refactor`].
    pub fn refactor(&mut self, a: &ComplexSparseMatrix) -> Result<(), SolveError> {
        self.lu.refactor(a.dim(), |i| a.row(i))
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.lu.n
    }

    /// Solves `A·x = b` into a caller-owned buffer.
    ///
    /// # Errors
    ///
    /// [`SolveError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve_into(&self, b: &[Complex], x: &mut Vec<Complex>) -> Result<(), SolveError> {
        self.lu.solve_into(b, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuFactor;

    fn dense_3x3() -> Matrix {
        Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]])
    }

    #[test]
    fn matches_dense_solver_on_full_matrix() {
        let d = dense_3x3();
        let s = SparseMatrix::from_dense(&d);
        let b = [1.0, -2.0, 0.0];
        let xd = crate::lu::solve(&d, &b).unwrap();
        let xs = SparseLu::factor(&s).unwrap().solve(&b).unwrap();
        for (a, b) in xd.iter().zip(&xs) {
            assert!((a - b).abs() < 1e-12, "{xd:?} vs {xs:?}");
        }
    }

    #[test]
    fn pattern_dedup_and_accumulation() {
        let mut m = SparseMatrix::from_pattern(2, &[(0, 0), (0, 0), (1, 1), (0, 1)]);
        assert_eq!(m.nnz(), 3);
        m.add_at(0, 0, 1.5);
        m.add_at(0, 0, 0.5);
        assert_eq!(m.values()[m.slot(0, 0).unwrap()], 2.0);
        assert_eq!(m.slot(1, 0), None);
        m.zero_values();
        assert!(m.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "not in sparse pattern")]
    fn add_outside_pattern_panics() {
        let mut m = SparseMatrix::from_pattern(2, &[(0, 0)]);
        m.add_at(1, 1, 1.0);
    }

    #[test]
    fn zero_diagonal_needs_pivoting() {
        // MNA-like: a voltage-source branch row has a structural zero on
        // the diagonal.
        let d = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 0.0]]);
        let s = SparseMatrix::from_dense(&d);
        let lu = SparseLu::factor(&s).unwrap();
        let x = lu.solve(&[4.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        // Row 1 was promoted to position 0.
        assert_eq!(lu.permutation(), &[1, 0]);
    }

    #[test]
    fn refactor_matches_fresh_factor() {
        let mut m = SparseMatrix::from_pattern(
            3,
            &[(0, 0), (0, 2), (1, 1), (1, 0), (2, 2), (2, 1), (2, 0)],
        );
        let stamp = |m: &mut SparseMatrix, scale: f64| {
            m.zero_values();
            m.add_at(0, 0, 4.0 * scale);
            m.add_at(0, 2, 1.0);
            m.add_at(1, 0, -scale);
            m.add_at(1, 1, 3.0);
            m.add_at(2, 0, 2.0);
            m.add_at(2, 1, -scale);
            m.add_at(2, 2, 5.0);
        };
        stamp(&mut m, 1.0);
        let mut lu = SparseLu::factor(&m).unwrap();
        let b = [1.0, 2.0, 3.0];
        for scale in [10.0, 0.25, -3.0] {
            stamp(&mut m, scale);
            lu.refactor(&m).unwrap();
            let x = lu.solve(&b).unwrap();
            let fresh = SparseLu::factor(&m).unwrap().solve(&b).unwrap();
            let dense = crate::lu::solve(&m.to_dense(), &b).unwrap();
            for i in 0..3 {
                assert!((x[i] - fresh[i]).abs() < 1e-12);
                assert!((x[i] - dense[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn explicit_zero_slots_survive_refactor() {
        // A pattern slot that is zero at first factorization (a
        // capacitor slot at DC) and nonzero later (transient restamp).
        let mut m = SparseMatrix::from_pattern(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        m.add_at(0, 0, 1.0);
        m.add_at(1, 1, 1.0);
        let mut lu = SparseLu::factor(&m).unwrap();
        m.zero_values();
        m.add_at(0, 0, 2.0);
        m.add_at(0, 1, -1.0);
        m.add_at(1, 0, -1.0);
        m.add_at(1, 1, 2.0);
        lu.refactor(&m).unwrap();
        let x = lu.solve(&[1.0, 1.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_column_reports_variable_index() {
        // Column 1 is structurally empty.
        let mut m = SparseMatrix::from_pattern(2, &[(0, 0), (1, 0)]);
        m.add_at(0, 0, 1.0);
        m.add_at(1, 0, 2.0);
        match SparseLu::factor(&m) {
            Err(SolveError::Singular { step }) => assert_eq!(step, 1),
            other => panic!("expected singular, got {other:?}"),
        }
        // Numerically dependent rows die at column 1 too, like dense.
        let d = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match SparseLu::factor(&SparseMatrix::from_dense(&d)) {
            Err(SolveError::Singular { step }) => assert_eq!(step, 1),
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn refactor_on_collapsed_values_reports_singular() {
        let mut m = SparseMatrix::from_pattern(2, &[(0, 0), (1, 1)]);
        m.add_at(0, 0, 1.0);
        m.add_at(1, 1, 1.0);
        let mut lu = SparseLu::factor(&m).unwrap();
        m.zero_values();
        m.add_at(0, 0, 1.0); // (1,1) left at exactly zero
        assert!(matches!(
            lu.refactor(&m),
            Err(SolveError::Singular { step: 1 })
        ));
    }

    #[test]
    fn det_and_pivot_ratio_match_dense() {
        let d = dense_3x3();
        let lu_d = LuFactor::new(&d).unwrap();
        let lu_s = SparseLu::factor(&SparseMatrix::from_dense(&d)).unwrap();
        assert!(
            (lu_d.det() - lu_s.det()).abs() < 1e-12 * lu_d.det().abs(),
            "dense det {} sparse det {}",
            lu_d.det(),
            lu_s.det()
        );
        // Pivot choices may differ, so ratios agree only in magnitude
        // class; both must flag the same healthy system as healthy.
        assert!(lu_d.pivot_ratio() < 1e3 && lu_s.pivot_ratio() < 1e3);
        let near = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + 1e-13]]);
        let lu_near = SparseLu::factor(&SparseMatrix::from_dense(&near)).unwrap();
        assert!(lu_near.pivot_ratio() > 1e12);
    }

    #[test]
    fn fill_in_is_discovered_and_reused() {
        // Arrow matrix: elimination of the dense first column fills the
        // last row/column block.
        let n = 6;
        let mut entries = vec![(0u32, 0u32)];
        for i in 1..n as u32 {
            entries.push((i, 0));
            entries.push((0, i));
            entries.push((i, i));
        }
        let mut m = SparseMatrix::from_pattern(n, &entries);
        let stamp = |m: &mut SparseMatrix, d: f64| {
            m.zero_values();
            m.add_at(0, 0, 10.0);
            for i in 1..n {
                m.add_at(i, 0, 1.0);
                m.add_at(0, i, 1.0);
                m.add_at(i, i, d);
            }
        };
        stamp(&mut m, 4.0);
        let mut lu = SparseLu::factor(&m).unwrap();
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        stamp(&mut m, 7.0);
        lu.refactor(&m).unwrap();
        let x = lu.solve(&b).unwrap();
        let dense = crate::lu::solve(&m.to_dense(), &b).unwrap();
        for i in 0..n {
            assert!((x[i] - dense[i]).abs() < 1e-12, "{x:?} vs {dense:?}");
        }
    }

    #[test]
    fn solve_into_reuses_buffer_and_checks_length() {
        let m = SparseMatrix::from_dense(&dense_3x3());
        let lu = SparseLu::factor(&m).unwrap();
        let mut x = Vec::with_capacity(3);
        lu.solve_into(&[1.0, -2.0, 0.0], &mut x).unwrap();
        let ptr = x.as_ptr();
        lu.solve_into(&[0.5, 1.0, 2.0], &mut x).unwrap();
        assert_eq!(ptr, x.as_ptr(), "buffer must be reused");
        assert_eq!(
            lu.solve_into(&[1.0], &mut x).unwrap_err(),
            SolveError::DimensionMismatch {
                expected: 3,
                actual: 1
            }
        );
    }

    #[test]
    fn empty_system_is_trivial() {
        let m = SparseMatrix::from_pattern(0, &[]);
        let lu = SparseLu::factor(&m).unwrap();
        assert_eq!(lu.dim(), 0);
        assert_eq!(lu.solve(&[]).unwrap(), Vec::<f64>::new());
        assert_eq!(lu.det(), 1.0);
        assert_eq!(lu.pivot_ratio(), 1.0);
    }

    #[test]
    fn mul_vec_into_matches_dense() {
        let d = dense_3x3();
        let s = SparseMatrix::from_dense(&d);
        let x = [1.0, 2.0, 3.0];
        let mut y = Vec::new();
        s.mul_vec_into(&x, &mut y);
        assert_eq!(y, d.mul_vec(&x));
    }

    #[test]
    fn complex_matches_dense_complex() {
        let mut d = ComplexMatrix::zeros(2, 2);
        d[(0, 0)] = Complex::new(1.0, 1.0);
        d[(0, 1)] = Complex::new(0.0, -2.0);
        d[(1, 0)] = Complex::new(3.0, 0.0);
        d[(1, 1)] = Complex::new(-1.0, 0.5);
        let s = ComplexSparseMatrix::from_dense(&d);
        let b = [Complex::ONE, Complex::new(0.0, 1.0)];
        let xd = crate::lu::ComplexLuFactor::new(&d).unwrap().solve(&b).unwrap();
        let lu = ComplexSparseLu::factor(&s).unwrap();
        let mut xs = Vec::new();
        lu.solve_into(&b, &mut xs).unwrap();
        for (a, b) in xd.iter().zip(&xs) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn complex_refactor_tracks_new_values() {
        // An RC admittance pattern swept over frequency: refactor per
        // frequency must match a fresh factorization.
        let mut m = ComplexSparseMatrix::from_pattern(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let stamp = |m: &mut ComplexSparseMatrix, w: f64| {
            m.zero_values();
            let g = Complex::from_re(1e-3);
            let jwc = Complex::new(0.0, w * 1e-9);
            m.add_at(0, 0, g);
            m.add_at(0, 1, -g);
            m.add_at(1, 0, -g);
            m.add_at(1, 1, g + jwc);
        };
        stamp(&mut m, 1e3);
        let mut lu = ComplexSparseLu::factor(&m).unwrap();
        let b = [Complex::ONE, Complex::ZERO];
        for w in [1e4, 1e6, 1e9] {
            stamp(&mut m, w);
            lu.refactor(&m).unwrap();
            let mut x = Vec::new();
            lu.solve_into(&b, &mut x).unwrap();
            let fresh = ComplexSparseLu::factor(&m).unwrap();
            let mut y = Vec::new();
            fresh.solve_into(&b, &mut y).unwrap();
            for (a, b) in x.iter().zip(&y) {
                assert!((*a - *b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn complex_singular_rejected() {
        let m = ComplexSparseMatrix::from_pattern(2, &[(0, 0), (1, 1)]);
        assert!(matches!(
            ComplexSparseLu::factor(&m),
            Err(SolveError::Singular { step: 0 })
        ));
    }

    #[test]
    fn determinant_sign_with_pivot() {
        let d = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = SparseLu::factor(&SparseMatrix::from_dense(&d)).unwrap();
        assert!((lu.det() - -1.0).abs() < 1e-12);
    }

    // -- the column-indexed kernel against today's full scan --

    /// The full-scan kernel the column index replaced, kept as the
    /// reference [`eliminate`] must match bit for bit: per column it
    /// scans every row three times (column maximum, pivot choice,
    /// elimination).
    fn eliminate_full_scan<T: Scalar>(
        mut rows: Vec<WorkRow<T>>,
    ) -> Result<(Vec<usize>, Vec<WorkRow<T>>), SolveError> {
        let n = rows.len();
        let mut lower = vec![0usize; n];
        let mut assigned = vec![false; n];
        let mut perm = Vec::with_capacity(n);
        for k in 0..n {
            let kk = k as u32;
            let mut col_max = 0.0f64;
            for i in (0..n).filter(|&i| !assigned[i]) {
                if let Ok(p) = rows[i].binary_search_by_key(&kk, |e| e.0) {
                    col_max = col_max.max(rows[i][p].1.mag());
                }
            }
            if col_max < PIVOT_EPS || !col_max.is_finite() {
                return Err(SolveError::Singular { step: k });
            }
            let mut pivot_row = None;
            let mut best_active = usize::MAX;
            for i in (0..n).filter(|&i| !assigned[i]) {
                if let Ok(p) = rows[i].binary_search_by_key(&kk, |e| e.0) {
                    let active = rows[i].len() - lower[i];
                    if rows[i][p].1.mag() >= T::TOL * col_max && active < best_active {
                        best_active = active;
                        pivot_row = Some(i);
                    }
                }
            }
            let p = pivot_row.expect("col_max admits at least one candidate");
            assigned[p] = true;
            perm.push(p);
            let pivot = rows[p].clone();
            let pivot_val = pivot[pivot.binary_search_by_key(&kk, |e| e.0).unwrap()].1;
            for (i, row) in rows.iter_mut().enumerate() {
                if assigned[i] {
                    continue;
                }
                if let Ok(q) = row.binary_search_by_key(&kk, |e| e.0) {
                    let f = row[q].1 / pivot_val;
                    row[q].1 = f;
                    lower[i] += 1;
                    for &(c, uv) in pivot.iter().filter(|&&(c, _)| c > kk) {
                        match row.binary_search_by_key(&c, |e| e.0) {
                            Ok(pos) => row[pos].1 -= f * uv,
                            Err(pos) => row.insert(pos, (c, -(f * uv))),
                        }
                    }
                }
            }
        }
        Ok((perm, rows))
    }

    /// Bit patterns of a scalar, for exact comparison.
    trait Bits: Scalar {
        fn bits(self) -> [u64; 2];
    }

    impl Bits for f64 {
        fn bits(self) -> [u64; 2] {
            [self.to_bits(), 0]
        }
    }

    impl Bits for Complex {
        fn bits(self) -> [u64; 2] {
            [self.re.to_bits(), self.im.to_bits()]
        }
    }

    /// Factors `rows` with the reference kernel, then asserts the
    /// production result carries the same permutation, the same L/U
    /// patterns and bit-identical values — or the same singular step.
    fn assert_matches_reference<T: Bits + std::fmt::Debug>(
        rows: Vec<WorkRow<T>>,
        got: Result<&Factors<T>, SolveError>,
    ) {
        let want = eliminate_full_scan(rows).map(|(perm, rows)| Factors::split(perm, &rows));
        match (want, got) {
            (Ok(want), Ok(got)) => {
                assert_eq!(got.perm, want.perm, "permutation");
                assert_eq!(got.l_ptr, want.l_ptr, "L row pointers");
                assert_eq!(got.l_cols, want.l_cols, "L pattern");
                assert_eq!(got.u_ptr, want.u_ptr, "U row pointers");
                assert_eq!(got.u_cols, want.u_cols, "U pattern");
                let bits = |v: &[T]| v.iter().map(|x| x.bits()).collect::<Vec<_>>();
                assert!(bits(&got.l_vals) == bits(&want.l_vals), "L values differ");
                assert!(bits(&got.u_vals) == bits(&want.u_vals), "U values differ");
            }
            (Err(want), Err(got)) => assert_eq!(got, want),
            (want, got) => panic!("reference {want:?} but kernel {got:?}"),
        }
    }

    /// Factors one coordinate list both ways, real and complex (the
    /// complex copy takes the second value as its imaginary part), and
    /// returns the real matrix with its factorization.
    fn check_both(
        n: usize,
        coords: &[(u32, u32, f64, f64)],
    ) -> (SparseMatrix, Result<SparseLu, SolveError>) {
        let pattern: Vec<(u32, u32)> = coords.iter().map(|&(r, c, _, _)| (r, c)).collect();
        let mut a = SparseMatrix::from_pattern(n, &pattern);
        let mut z = ComplexSparseMatrix::from_pattern(n, &pattern);
        for &(r, c, re, im) in coords {
            a.add_at(r as usize, c as usize, re);
            z.add_at(r as usize, c as usize, Complex::new(re, im));
        }
        let lu = SparseLu::factor(&a);
        assert_matches_reference(
            work_rows(n, |i| a.row(i)),
            lu.as_ref().map(|f| &f.lu).map_err(Clone::clone),
        );
        let zlu = ComplexSparseLu::factor(&z);
        assert_matches_reference(
            work_rows(n, |i| z.row(i)),
            zlu.as_ref().map(|f| &f.lu).map_err(Clone::clone),
        );
        (a, lu)
    }

    /// SplitMix64, enough to draw matrices from one proptest seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, k: usize) -> usize {
            (self.next() % k as u64) as usize
        }
        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }
        /// A value from a small set, so magnitudes (and with them pivot
        /// admissibility and row activity) tie often; sometimes an
        /// explicit zero, sometimes a value spanning six decades.
        fn value(&mut self) -> f64 {
            let sign = if self.chance(50) { 1.0 } else { -1.0 };
            sign * match self.below(8) {
                0 => 0.0,
                1 | 2 => 1.0,
                3 => 2.0,
                4 => 0.5,
                5 => 1e-3,
                _ => 10f64.powf(self.next() as f64 / u64::MAX as f64 * 6.0 - 3.0),
            }
        }
    }

    /// A random sparse matrix of one of four shapes:
    /// 0 — unstructured, explicit zeros and tied magnitudes;
    /// 1 — MNA-shaped: a node block with loaded diagonal plus branch
    ///     rows/columns whose diagonal is structurally absent;
    /// 2 — equal-count rows of ±1 (every pivot choice is a tie);
    /// 3 — shape 0 or 1 made singular (an emptied or tiny column, or a
    ///     repeated row).
    fn random_coords(rng: &mut Mix, n: usize, shape: u32) -> Vec<(u32, u32, f64, f64)> {
        let mut out = Vec::new();
        let mut push = |rng: &mut Mix, r: usize, c: usize, re: f64| {
            let im = if rng.chance(50) { 0.0 } else { rng.value() };
            out.push((r as u32, c as u32, re, im));
        };
        match shape {
            0 => {
                let density = 5 + rng.below(40);
                for r in 0..n {
                    for c in 0..n {
                        if r == c || rng.chance(density) {
                            let v = rng.value();
                            push(rng, r, c, v);
                        }
                    }
                }
            }
            1 => {
                let branches = rng.below(n.div_ceil(3) + 1).min(n - 1);
                let nodes = n - branches;
                for i in 0..nodes {
                    // gmin-like diagonal, sometimes an explicit zero.
                    let d = if rng.chance(20) { 0.0 } else { 1e-12 };
                    push(rng, i, i, d);
                }
                for _ in 0..2 * nodes {
                    let (a, b) = (rng.below(nodes), rng.below(nodes));
                    let g = rng.value().abs();
                    push(rng, a, a, g);
                    push(rng, b, b, g);
                    if a != b {
                        push(rng, a, b, -g);
                        push(rng, b, a, -g);
                    }
                    if rng.chance(30) {
                        // A transconductance: one-sided coupling.
                        let (gm, c) = (rng.value(), rng.below(nodes));
                        push(rng, a, c, gm);
                    }
                }
                for k in 0..branches {
                    let rb = nodes + k;
                    let p = rng.below(nodes);
                    push(rng, p, rb, 1.0);
                    push(rng, rb, p, 1.0);
                    let m = rng.below(nodes);
                    if m != p {
                        push(rng, m, rb, -1.0);
                        push(rng, rb, m, -1.0);
                    }
                    if rng.chance(30) {
                        // A VCVS control entry in the branch row.
                        let (gain, c) = (rng.value(), rng.below(nodes));
                        push(rng, rb, c, gain);
                    }
                }
            }
            2 => {
                let per_row = 1 + rng.below(n.min(4));
                for r in 0..n {
                    for k in 0..per_row {
                        let c = if k == 0 { r } else { rng.below(n) };
                        let v = if rng.chance(50) { 1.0 } else { -1.0 };
                        push(rng, r, c, v);
                    }
                }
            }
            _ => {
                let base = rng.below(2) as u32;
                let mut coords = random_coords(rng, n, base);
                let c = rng.below(n) as u32;
                match rng.below(3) {
                    0 => coords.retain(|e| e.1 != c),
                    1 => {
                        for e in coords.iter_mut().filter(|e| e.1 == c) {
                            e.2 *= 1e-305;
                            e.3 *= 1e-305;
                        }
                    }
                    _ => {
                        let r = c;
                        let copy = (r + 1) % n as u32;
                        coords.retain(|e| e.0 != copy);
                        let dup: Vec<_> = coords.iter().filter(|e| e.0 == r).copied().collect();
                        coords.extend(dup.into_iter().map(|(_, c, re, im)| (copy, c, re, im)));
                    }
                }
                return coords;
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn factor_matches_the_full_scan_reference(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..40,
            shape in 0u32..4
        ) {
            let mut rng = Mix(seed);
            let _ = check_both(n, &random_coords(&mut rng, n, shape));
        }
    }

    #[test]
    fn reference_cases_cover_singular_pivoted_and_fill_in_factorizations() {
        // The property above is only as good as its inputs: over the
        // same generator, every shape must produce pivot swaps and
        // fill, and the singular shape must actually fail.
        let mut singular = [0usize; 4];
        let mut swapped = [0usize; 4];
        let mut filled = [0usize; 4];
        for seed in 0..200u64 {
            for shape in 0..4u32 {
                let mut rng = Mix(seed);
                let n = 2 + rng.below(30);
                let (a, lu) = check_both(n, &random_coords(&mut rng, n, shape));
                match lu {
                    Err(_) => singular[shape as usize] += 1,
                    Ok(lu) => {
                        let s = shape as usize;
                        swapped[s] +=
                            usize::from(lu.permutation().iter().enumerate().any(|(i, &p)| i != p));
                        filled[s] += usize::from(lu.lu.l_cols.len() + lu.lu.u_cols.len() > a.nnz());
                    }
                }
            }
        }
        assert!(
            singular[3] > 150,
            "singular shape failed only {} times",
            singular[3]
        );
        for s in 0..3 {
            assert!(
                swapped[s] > 10 && filled[s] > 10,
                "shape {s}: {swapped:?} {filled:?}"
            );
        }
    }

    /// The coordinates and DC-ish values of an `stages`-long chain of
    /// the `scl_buf` cell, laid out as the MNA pattern pass lays out the
    /// `.ulp` chain: the testbench nodes vdd, ctl, vcm, inp, inn, then
    /// cs/outp/outn per stage, then the five source branches (VDD, VCTL,
    /// VCM and the two ±0.5 VCVS). The second value of each entry is the
    /// susceptance of the load-capacitor slots, zero elsewhere.
    fn scl_chain(stages: usize) -> (usize, Vec<(u32, u32, f64, f64)>) {
        const GND: usize = usize::MAX;
        let (vdd, ctl, vcm, inp, inn) = (0, 1, 2, 3, 4);
        let nodes = 5 + 3 * stages;
        let mut out = Vec::new();
        let mut at = |r: usize, c: usize, re: f64, im: f64| {
            if r != GND && c != GND {
                out.push((r as u32, c as u32, re, im));
            }
        };
        for i in 0..nodes {
            at(i, i, 1e-12, 0.0); // gmin
        }
        let two_terminal =
            |at: &mut dyn FnMut(usize, usize, f64, f64), a: usize, b: usize, g: f64, b_im: f64| {
                at(a, a, g, b_im);
                at(b, b, g, b_im);
                at(a, b, -g, -b_im);
                at(b, a, -g, -b_im);
            };
        let (mut ip, mut inn_s) = (inp, inn);
        for s in 0..stages {
            let (cs, op, on) = (5 + 3 * s, 6 + 3 * s, 7 + 3 * s);
            // M1 (d=on, g=ip, s=cs) and M2 (d=op, g=inn_s, s=cs), bulk
            // grounded: gm on the gate column, gds and gm+gds on the
            // drain/source columns.
            for (d, g) in [(on, ip), (op, inn_s)] {
                let (gm, gds) = (2e-8 + 1e-10 * s as f64, 1e-10);
                for (c, v) in [(g, gm), (cs, -(gm + gds)), (d, gds)] {
                    at(d, c, v, 0.0);
                    at(cs, c, -v, 0.0);
                }
            }
            two_terminal(&mut at, vdd, op, 5e-9, 0.0);
            two_terminal(&mut at, vdd, on, 5e-9, 0.0);
            two_terminal(&mut at, op, GND, 0.0, 1e-11);
            two_terminal(&mut at, on, GND, 0.0, 1e-11);
            (ip, inn_s) = (op, on);
        }
        let mut branch = nodes;
        let mut vsource = |at: &mut dyn FnMut(usize, usize, f64, f64), p: usize, n: usize| {
            for (node, sign) in [(p, 1.0), (n, -1.0)] {
                at(node, branch, sign, 0.0);
                at(branch, node, sign, 0.0);
            }
            branch += 1;
            branch - 1
        };
        vsource(&mut at, vdd, GND);
        vsource(&mut at, ctl, GND);
        vsource(&mut at, vcm, GND);
        for (p, gain) in [(inp, 0.5), (inn, -0.5)] {
            let rb = vsource(&mut at, p, vcm);
            at(rb, ctl, -gain, 0.0);
        }
        (branch, out)
    }

    #[test]
    fn chain_of_3010_unknowns_matches_the_full_scan_reference() {
        let (n, coords) = scl_chain(1000);
        assert_eq!(n, 3010);
        let lu = check_both(n, &coords).1.expect("the chain is nonsingular");
        assert!(
            lu.permutation().iter().enumerate().any(|(i, &p)| i != p),
            "branch rows pivot"
        );
    }
}
