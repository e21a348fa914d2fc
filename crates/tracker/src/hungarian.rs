//! Hungarian (Kuhn-Munkres) algorithm for minimum-cost assignment.
//!
//! O(n^3) potentials formulation. Rectangular matrices are supported by
//! conceptually padding with `FORBIDDEN` cost; pairs at `FORBIDDEN` are
//! reported as unassigned.

/// Cost marking an (row, col) pair as impossible to match.
pub const FORBIDDEN: f64 = 1e18;

/// Solves min-cost assignment for `cost[row][col]`.
///
/// Returns, for each row, the assigned column (or `None` when the row is
/// unassigned because columns ran out or only forbidden pairs remained).
///
/// # Panics
///
/// Panics if rows have inconsistent lengths.
pub fn solve(cost: &[Vec<f64>]) -> Vec<Option<usize>> {
    let m = cost.first().map_or(0, Vec::len);
    for row in cost {
        assert_eq!(row.len(), m, "cost matrix rows must have equal length");
    }
    let flat: Vec<f64> = cost.iter().flatten().copied().collect();
    let mut out = Vec::new();
    Hungarian::default().solve(&flat, cost.len(), m, &mut out);
    out
}

/// Reusable buffers for [`Hungarian::solve`]: a tracker that solves one
/// assignment per frame keeps one and, once warm, allocates nothing. The
/// buffers carry no state from one solve to the next.
#[derive(Debug, Default)]
pub(crate) struct Hungarian {
    /// The transposed matrix, for inputs with more rows than columns.
    transposed: Vec<f64>,
    /// The transposed problem's assignment.
    col_assign: Vec<Option<usize>>,
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
}

impl Hungarian {
    /// Solves min-cost assignment for the row-major `rows × cols` matrix
    /// `cost`, writing each row's assigned column (or `None`, as in
    /// [`solve`]) into `out`.
    ///
    /// # Panics
    ///
    /// Panics when `cost` does not hold `rows × cols` entries.
    pub(crate) fn solve(
        &mut self,
        cost: &[f64],
        rows: usize,
        cols: usize,
        out: &mut Vec<Option<usize>>,
    ) {
        assert_eq!(cost.len(), rows * cols, "cost matrix must be rows x cols");
        out.clear();
        out.resize(rows, None);
        if rows == 0 || cols == 0 {
            return;
        }
        // The potentials algorithm needs rows <= cols; pad virtually by
        // transposing when needed.
        if rows > cols {
            let mut t = std::mem::take(&mut self.transposed);
            t.clear();
            t.extend((0..cols).flat_map(|j| (0..rows).map(move |i| cost[i * cols + j])));
            let mut col_assign = std::mem::take(&mut self.col_assign);
            col_assign.clear();
            col_assign.resize(cols, None);
            self.potentials(&t, cols, rows, &mut col_assign);
            for (j, a) in col_assign.iter().enumerate() {
                if let Some(i) = a {
                    out[*i] = Some(j);
                }
            }
            self.transposed = t;
            self.col_assign = col_assign;
            return;
        }
        self.potentials(cost, rows, cols, out);
    }

    /// The O(n^3) potentials formulation for `n <= m`; `out` holds `n`
    /// `None`s on entry.
    fn potentials(&mut self, cost: &[f64], n: usize, m: usize, out: &mut [Option<usize>]) {
        let at = |i: usize, j: usize| cost[i * m + j];
        // 1-indexed arrays per the classical formulation.
        let inf = f64::INFINITY;
        self.v.clear();
        self.v.resize(m + 1, 0.0);
        self.u.clear();
        self.u.resize(n + 1, 0.0);
        self.p.clear();
        self.p.resize(m + 1, 0); // p[j] = row matched to column j
        self.way.clear();
        self.way.resize(m + 1, 0);
        let (u, v, p, way) = (&mut self.u, &mut self.v, &mut self.p, &mut self.way);
        let (minv, used) = (&mut self.minv, &mut self.used);

        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            minv.clear();
            minv.resize(m + 1, inf);
            used.clear();
            used.resize(m + 1, false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = inf;
                let mut j1 = 0usize;
                for j in 1..=m {
                    if used[j] {
                        continue;
                    }
                    let cur = at(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        for (j, &row) in p.iter().enumerate().skip(1) {
            if row != 0 {
                let i = row - 1;
                if at(i, j - 1) < FORBIDDEN / 2.0 {
                    out[i] = Some(j - 1);
                }
            }
        }
    }
}

/// Total cost of an assignment (ignoring unassigned rows).
pub fn assignment_cost(cost: &[Vec<f64>], assignment: &[Option<usize>]) -> f64 {
    assignment
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|j| cost[i][j]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive minimum over all row->col injections, for validation.
    fn brute_force(cost: &[Vec<f64>]) -> f64 {
        let n = cost.len();
        let m = cost[0].len();
        fn rec(cost: &[Vec<f64>], row: usize, used: &mut [bool], acc: f64, best: &mut f64) {
            let n = cost.len();
            let m = cost[0].len();
            if row == n {
                *best = best.min(acc);
                return;
            }
            // Option: leave this row unassigned only if rows > cols handled
            // elsewhere; here n <= m in tests, so always assign.
            for j in 0..m {
                if !used[j] {
                    used[j] = true;
                    rec(cost, row + 1, used, acc + cost[row][j], best);
                    used[j] = false;
                }
            }
            let _ = n;
        }
        let mut best = f64::INFINITY;
        rec(cost, 0, &mut vec![false; m], 0.0, &mut best);
        let _ = n;
        best
    }

    #[test]
    fn simple_square() {
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let a = solve(&cost);
        assert_eq!(assignment_cost(&cost, &a), 5.0);
        // All rows assigned to distinct columns.
        let mut cols: Vec<usize> = a.iter().map(|x| x.unwrap()).collect();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), 3);
    }

    #[test]
    fn rectangular_wide() {
        let cost = vec![vec![10.0, 1.0, 7.0, 8.0], vec![1.0, 10.0, 7.0, 8.0]];
        let a = solve(&cost);
        assert_eq!(a, vec![Some(1), Some(0)]);
    }

    #[test]
    fn rectangular_tall_leaves_rows_unassigned() {
        let cost = vec![vec![1.0], vec![2.0], vec![3.0]];
        let a = solve(&cost);
        let assigned: Vec<_> = a.iter().filter(|x| x.is_some()).collect();
        assert_eq!(assigned.len(), 1);
        assert_eq!(a[0], Some(0), "cheapest row should win the only column");
    }

    #[test]
    fn forbidden_pairs_stay_unmatched() {
        let cost = vec![vec![FORBIDDEN, 1.0], vec![FORBIDDEN, FORBIDDEN]];
        let a = solve(&cost);
        assert_eq!(a[0], Some(1));
        assert_eq!(a[1], None);
    }

    #[test]
    fn empty_inputs() {
        assert!(solve(&[]).is_empty());
        let a = solve(&[vec![], vec![]]);
        assert_eq!(a, vec![None, None]);
    }

    #[test]
    fn matches_brute_force_on_small_matrices() {
        for seed in 0u64..300 {
            for n in 1usize..5 {
                for extra in 0usize..3 {
                    let m = n + extra;
                    let mut x = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(11);
                    let mut next = || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % 100) as f64
                    };
                    let cost: Vec<Vec<f64>> =
                        (0..n).map(|_| (0..m).map(|_| next()).collect()).collect();
                    let a = solve(&cost);
                    // Every row assigned (n <= m, no forbidden entries)...
                    assert!(a.iter().all(|x| x.is_some()), "seed {seed} n {n} m {m}");
                    // ...to distinct columns...
                    let mut cols: Vec<usize> = a.iter().map(|x| x.unwrap()).collect();
                    cols.sort_unstable();
                    let dedup_len = {
                        let mut c = cols.clone();
                        c.dedup();
                        c.len()
                    };
                    assert_eq!(dedup_len, cols.len(), "seed {seed} n {n} m {m}");
                    // ...at the optimal cost.
                    let got = assignment_cost(&cost, &a);
                    let want = brute_force(&cost);
                    assert!(
                        (got - want).abs() < 1e-9,
                        "got {got} want {want} (seed {seed} n {n} m {m})"
                    );
                }
            }
        }
    }

    /// The largest number of rows that can be given distinct columns
    /// through non-forbidden entries (augmenting paths).
    fn max_matches(cost: &[Vec<f64>]) -> usize {
        fn augment(
            cost: &[Vec<f64>],
            i: usize,
            seen: &mut [bool],
            owner: &mut [Option<usize>],
        ) -> bool {
            for j in 0..seen.len() {
                if cost[i][j] >= FORBIDDEN || seen[j] {
                    continue;
                }
                seen[j] = true;
                if owner[j].is_none_or(|k| augment(cost, k, seen, owner)) {
                    owner[j] = Some(i);
                    return true;
                }
            }
            false
        }
        let m = cost[0].len();
        let mut owner = vec![None; m];
        (0..cost.len())
            .filter(|&i| augment(cost, i, &mut vec![false; m], &mut owner))
            .count()
    }

    /// The tracker's matrices: tall and wide, up to 6 × 6, each entry
    /// forbidden or a cost `1 − IoU` with IoU in `[0.2, 1]`. The solver
    /// gives distinct columns, never a forbidden pair, and as many
    /// matches as the forbidden entries allow.
    ///
    /// It does not always find the cheapest of those matchings:
    /// `FORBIDDEN` enters the potentials and swamps sub-1 costs (the f64
    /// ulp at 1e18 is 128), so `[[0.543, F], [0.469, F]]` gives the one
    /// column to the costlier row. That is not asserted here.
    #[test]
    fn matches_as_many_pairs_as_forbidden_entries_allow() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..20_000 {
            let (n, m) = (1 + (next() % 6) as usize, 1 + (next() % 6) as usize);
            let forbidden_one_in = 2 + next() % 3;
            let cost: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..m)
                        .map(|_| {
                            if next() % forbidden_one_in == 0 {
                                FORBIDDEN
                            } else {
                                let iou = 0.2 + 0.8 * (next() % 1_001) as f64 / 1_000.0;
                                1.0 - iou
                            }
                        })
                        .collect()
                })
                .collect();
            let a = solve(&cost);
            let mut cols: Vec<usize> = a.iter().flatten().copied().collect();
            assert!(
                a.iter()
                    .enumerate()
                    .all(|(i, j)| j.is_none_or(|j| cost[i][j] < FORBIDDEN)),
                "forbidden pair (case {case}): {cost:?} -> {a:?}"
            );
            let matched = cols.len();
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), matched, "shared column (case {case}): {a:?}");
            assert_eq!(
                matched,
                max_matches(&cost),
                "too few matches (case {case}): {cost:?} -> {a:?}"
            );
        }
    }
}
