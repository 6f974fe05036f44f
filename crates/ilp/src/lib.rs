//! Exact 0-1 integer-linear-programming for the CR&P selection models.
//!
//! The paper solves two ILP shapes with CPLEX:
//!
//! - the **legalizer** (Eq. 11): place each window cell at exactly one
//!   (site, row) slot, no two placements overlapping, minimizing weighted
//!   displacement;
//! - the **candidate selection** (Eq. 12): pick exactly one placement
//!   candidate per critical cell, spatially incompatible candidates being
//!   mutually exclusive, minimizing estimated routing cost.
//!
//! Both are *partitioned selection problems*: binary variables partition
//! into groups with an exactly-one constraint per group, plus pairwise
//! conflicts. [`Model`] expresses exactly that, and [`Model::solve`] runs a
//! depth-first branch-and-bound per conflict component, with conflict
//! propagation, a sum-of-group-minima lower bound, and branching only on
//! groups whose minima conflict. Each component has its own node limit;
//! at the limit it keeps its best incumbent, so the solver degrades into
//! an anytime heuristic one component at a time.
//!
//! # Examples
//!
//! ```
//! use crp_ilp::{Model, SolveLimits};
//!
//! let mut m = Model::new();
//! let a0 = m.add_var(1.0); // group A, cheap
//! let a1 = m.add_var(5.0);
//! let b0 = m.add_var(2.0); // group B, cheap but conflicts with a0
//! let b1 = m.add_var(3.0);
//! m.add_exactly_one([a0, a1]);
//! m.add_exactly_one([b0, b1]);
//! m.add_conflict(a0, b0);
//! let sol = m.solve(SolveLimits::default())?;
//! assert_eq!(sol.objective, 4.0); // a0 + b1
//! assert!(sol.proven_optimal());
//! # Ok::<(), crp_ilp::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crp_geom::sum_ordered;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A binary decision variable handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub u32);

impl VarId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A partitioned 0-1 selection model: minimize Σ cost·x subject to one
/// exactly-one constraint per group and pairwise conflicts.
#[derive(Debug, Clone, Default)]
pub struct Model {
    costs: Vec<f64>,
    group_of: Vec<Option<u32>>,
    groups: Vec<Vec<VarId>>,
    conflicts: Vec<Vec<VarId>>,
}

/// Limits applied to a [`Model::solve`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveLimits {
    /// Maximum branch-and-bound nodes to explore in each conflict
    /// component before settling for its best incumbent.
    pub max_nodes: u64,
}

impl Default for SolveLimits {
    fn default() -> SolveLimits {
        SolveLimits {
            max_nodes: 10_000_000,
        }
    }
}

/// The outcome of a successful solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// The selected variable of each group, in group order. `None` marks
    /// a group whose conflict component hit the node limit before any
    /// feasible assignment was found.
    pub chosen: Vec<Option<VarId>>,
    /// The costs of the selected variables, summed in group order.
    pub objective: f64,
    /// Branch-and-bound nodes explored, over all components.
    pub nodes: u64,
    /// Conflict components whose search hit the node limit; each keeps
    /// its best incumbent, if it found one.
    pub unproven_components: usize,
}

impl Solution {
    /// Whether every component was searched to completion, making the
    /// selection a proven optimum.
    #[must_use]
    pub fn proven_optimal(&self) -> bool {
        self.unproven_components == 0
    }

    /// Whether `var` is selected.
    #[must_use]
    pub fn is_chosen(&self, var: VarId) -> bool {
        self.chosen.contains(&Some(var))
    }
}

/// Why a solve failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveError {
    /// The constraints admit no assignment.
    Infeasible,
    /// A variable does not belong to any exactly-one group.
    UngroupedVariable {
        /// The offending variable.
        var: VarId,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => f.write_str("model is infeasible"),
            SolveError::UngroupedVariable { var } => {
                write!(f, "variable {} belongs to no exactly-one group", var.0)
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl Model {
    /// Creates an empty model.
    #[must_use]
    pub fn new() -> Model {
        Model::default()
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Number of exactly-one groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Adds a binary variable with objective coefficient `cost`.
    pub fn add_var(&mut self, cost: f64) -> VarId {
        // crp-lint: allow(no-panic-paths, documented capacity contract: one
        // variable per candidate, far below u32::MAX; overflow is a caller bug)
        let id = VarId(u32::try_from(self.costs.len()).expect("too many variables"));
        self.costs.push(cost);
        self.group_of.push(None);
        self.conflicts.push(Vec::new());
        id
    }

    /// Constrains `vars` so exactly one of them is selected.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or any variable is already in a group.
    pub fn add_exactly_one(&mut self, vars: impl IntoIterator<Item = VarId>) {
        let vars: Vec<VarId> = vars.into_iter().collect();
        assert!(!vars.is_empty(), "exactly-one group cannot be empty");
        // crp-lint: allow(no-panic-paths, documented capacity contract: one
        // group per cell, far below u32::MAX; overflow is a caller bug)
        let gid = u32::try_from(self.groups.len()).expect("too many groups");
        for &v in &vars {
            assert!(
                self.group_of[v.index()].is_none(),
                "variable {} already grouped",
                v.0
            );
            self.group_of[v.index()] = Some(gid);
        }
        self.groups.push(vars);
    }

    /// Forbids selecting both `a` and `b`.
    pub fn add_conflict(&mut self, a: VarId, b: VarId) {
        if a == b {
            return;
        }
        if !self.conflicts[a.index()].contains(&b) {
            self.conflicts[a.index()].push(b);
            self.conflicts[b.index()].push(a);
        }
    }

    /// The objective coefficient of `var`.
    #[must_use]
    pub fn cost(&self, var: VarId) -> f64 {
        self.costs[var.index()]
    }

    /// Solves the model to optimality, conflict component by conflict
    /// component. A component that exhausts its node budget keeps its
    /// best incumbent, or leaves its groups `None` if it found none; see
    /// [`Solution::unproven_components`].
    ///
    /// # Errors
    ///
    /// - [`SolveError::UngroupedVariable`] if any variable is in no group;
    /// - [`SolveError::Infeasible`] if the conflicts admit no assignment.
    pub fn solve(&self, limits: SolveLimits) -> Result<Solution, SolveError> {
        for (i, g) in self.group_of.iter().enumerate() {
            if g.is_none() {
                return Err(SolveError::UngroupedVariable {
                    // crp-lint: allow(cast-truncation, i indexes the variable
                    // list, whose length add_var capped to u32)
                    var: VarId(i as u32),
                });
            }
        }
        if self.groups.is_empty() {
            return Ok(Solution {
                chosen: Vec::new(),
                objective: 0.0,
                nodes: 0,
                unproven_components: 0,
            });
        }

        // --- presolve: decompose into connected components -----------------
        // Two groups interact only through conflicts between their
        // variables; independent groups (no conflicts at all) reduce to
        // "pick the cheapest", and each conflict-connected component can be
        // solved separately. This is what keeps the legalizer and
        // selection ILPs exact at design scale.
        let num_groups = self.groups.len();
        let mut comp: Vec<usize> = (0..num_groups).collect();
        fn find(comp: &mut [usize], mut i: usize) -> usize {
            while comp[i] != i {
                comp[i] = comp[comp[i]];
                i = comp[i];
            }
            i
        }
        for (v, confs) in self.conflicts.iter().enumerate() {
            // crp-lint: allow(no-panic-paths, the loop at the top of solve
            // already returned UngroupedVariable if any entry were None)
            let gv = self.group_of[v].expect("validated") as usize;
            for c in confs {
                // crp-lint: allow(no-panic-paths, same validation as above)
                let gc = self.group_of[c.index()].expect("validated") as usize;
                let (rv, rc) = (find(&mut comp, gv), find(&mut comp, gc));
                if rv != rc {
                    comp[rv] = rc;
                }
            }
        }
        let mut components: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for g in 0..num_groups {
            components.entry(find(&mut comp, g)).or_default().push(g);
        }
        let mut component_list: Vec<Vec<usize>> = components.into_values().collect();
        component_list.sort_by_key(|c| c[0]);

        // Every variable belongs to exactly one component, and a finished
        // search leaves `forbidden` all-zero again, so both are shared.
        let mut local_of = vec![usize::MAX; self.num_vars()];
        let mut forbidden = vec![0u32; self.num_vars()];
        let mut chosen = vec![None; num_groups];
        let mut total_nodes = 0u64;
        let mut unproven = 0usize;

        for component in component_list {
            if component.len() == 1 && {
                let g = component[0];
                self.groups[g]
                    .iter()
                    .all(|v| self.conflicts[v.index()].is_empty())
            } {
                // Conflict-free singleton: pick the cheapest variable.
                let g = component[0];
                let best = self.groups[g]
                    .iter()
                    .copied()
                    .min_by(|a, b| {
                        self.costs[a.index()]
                            .total_cmp(&self.costs[b.index()])
                            .then(a.cmp(b))
                    })
                    // crp-lint: allow(no-panic-paths, add_exactly_one
                    // rejects empty groups, so min_by always sees one var)
                    .expect("groups are non-empty");
                chosen[g] = Some(best);
                continue;
            }

            // Branch-and-bound over this component's groups with its own
            // node budget: cost-sorted candidates, conflict-directed
            // branching, and a matching-strengthened lower bound (see
            // [`Search`]).
            let sorted_groups: Vec<Vec<VarId>> = component
                .iter()
                .map(|&g| {
                    let mut vars = self.groups[g].clone();
                    vars.sort_by(|&a, &b| self.costs[a.index()].total_cmp(&self.costs[b.index()]));
                    vars
                })
                .collect();
            for (local, vars) in sorted_groups.iter().enumerate() {
                for v in vars {
                    local_of[v.index()] = local;
                }
            }
            let k = sorted_groups.len();
            let mut search = Search {
                model: self,
                sorted_groups: &sorted_groups,
                local_of: &local_of,
                forbidden: &mut forbidden,
                done: vec![false; k],
                assigned: vec![VarId(0); k],
                best: None,
                best_cost: f64::INFINITY,
                nodes: 0,
                max_nodes: limits.max_nodes,
                aborted: false,
            };
            search.dfs(0.0);
            total_nodes += search.nodes;
            if search.aborted {
                unproven += 1;
            }
            match search.best {
                Some(component_chosen) => {
                    for (local, &var) in component_chosen.iter().enumerate() {
                        chosen[component[local]] = Some(var);
                    }
                }
                // No incumbent within the budget: the groups stay `None`.
                None if search.aborted => {}
                None => return Err(SolveError::Infeasible),
            }
        }

        Ok(Solution {
            objective: sum_ordered(chosen.iter().flatten().map(|v| self.costs[v.index()])),
            chosen,
            nodes: total_nodes,
            unproven_components: unproven,
        })
    }

    /// Brute-force enumeration over all group combinations — exponential;
    /// exposed for differential testing only.
    #[doc(hidden)]
    pub fn solve_exhaustive(&self) -> Result<Solution, SolveError> {
        for (i, g) in self.group_of.iter().enumerate() {
            if g.is_none() {
                return Err(SolveError::UngroupedVariable {
                    // crp-lint: allow(cast-truncation, i indexes the variable
                    // list, whose length add_var capped to u32)
                    var: VarId(i as u32),
                });
            }
        }
        let mut best: Option<(Vec<VarId>, f64)> = None;
        let mut stack = vec![0usize; self.groups.len()];
        let k = self.groups.len();
        if k == 0 {
            return Ok(Solution {
                chosen: vec![],
                objective: 0.0,
                nodes: 0,
                unproven_components: 0,
            });
        }
        'outer: loop {
            // Evaluate current combination.
            let chosen: Vec<VarId> = (0..k).map(|g| self.groups[g][stack[g]]).collect();
            let mut ok = true;
            'conf: for i in 0..k {
                for j in (i + 1)..k {
                    if self.conflicts[chosen[i].index()].contains(&chosen[j]) {
                        ok = false;
                        break 'conf;
                    }
                }
            }
            if ok {
                let cost: f64 = sum_ordered(chosen.iter().map(|v| self.costs[v.index()]));
                if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                    best = Some((chosen, cost));
                }
            }
            // Advance odometer.
            for g in (0..k).rev() {
                stack[g] += 1;
                if stack[g] < self.groups[g].len() {
                    continue 'outer;
                }
                stack[g] = 0;
                if g == 0 {
                    break 'outer;
                }
            }
        }
        match best {
            Some((chosen, objective)) => Ok(Solution {
                chosen: chosen.into_iter().map(Some).collect(),
                objective,
                nodes: 0,
                unproven_components: 0,
            }),
            None => Err(SolveError::Infeasible),
        }
    }
}

/// Per-component branch-and-bound.
///
/// Four devices keep the search polynomial on the sparse instances the
/// CR&P flow produces and merely *slow* (instead of wrong) on dense ones:
///
/// 1. **cost-sorted candidates** — the first selectable variable of a
///    group is its cheapest, so per-group minima are O(scan);
/// 2. **matching-strengthened bound** — beyond the classic sum of group
///    minima, every disjoint pair of groups whose *minima conflict* must
///    pay at least the smaller of the two groups' regrets (second-best
///    minus best); a greedy matching over such pairs is a valid additive
///    lower bound and prunes the equal-cost plateaus that blow up the
///    naive bound;
/// 3. **conflict-directed branching** — only a *hot* group, one whose
///    minimum conflicts with another undone group's minimum, is branched
///    on, fail-first (fewest selectable variables, then largest regret,
///    then lowest index). Any branching group is exact, and groups whose
///    minimum is already compatible cannot raise the bound;
/// 4. **attained-bound leaf** — with no hot group left the remaining
///    minima are pairwise compatible, so the sum-of-minima bound is a
///    feasible completion: it is recorded and the subtree is closed.
struct Search<'a> {
    model: &'a Model,
    sorted_groups: &'a [Vec<VarId>],
    /// Local (component) group index per variable of this component.
    local_of: &'a [usize],
    /// Count of chosen conflicting variables per var (0 = selectable).
    forbidden: &'a mut [u32],
    done: Vec<bool>,
    assigned: Vec<VarId>,
    best: Option<Vec<VarId>>,
    best_cost: f64,
    nodes: u64,
    max_nodes: u64,
    aborted: bool,
}

struct GroupState {
    group: usize,
    min_var: VarId,
    min_cost: f64,
    /// Second-cheapest selectable cost (`f64::INFINITY` if none).
    regret: f64,
    selectable: usize,
}

impl Search<'_> {
    /// Scans the remaining groups: per-group minima, regrets, and
    /// selectable counts. `None` when some group has no selectable var.
    fn scan(&self) -> Option<Vec<GroupState>> {
        let mut states = Vec::new();
        for (g, vars) in self.sorted_groups.iter().enumerate() {
            if self.done[g] {
                continue;
            }
            let mut min: Option<(VarId, f64)> = None;
            let mut second = f64::INFINITY;
            let mut selectable = 0;
            for v in vars {
                if self.forbidden[v.index()] > 0 {
                    continue;
                }
                selectable += 1;
                let c = self.model.costs[v.index()];
                if min.is_none() {
                    min = Some((*v, c));
                } else if second.is_infinite() {
                    second = c;
                }
            }
            let (min_var, min_cost) = min?;
            states.push(GroupState {
                group: g,
                min_var,
                min_cost,
                regret: second - min_cost,
                selectable,
            });
        }
        Some(states)
    }

    /// The matching-strengthened lower bound over `states` (see type
    /// docs), plus the hot flag of every state. Returns `None` when two
    /// single-option groups conflict — a guaranteed dead end.
    fn bound_extra(&self, states: &[GroupState]) -> Option<(f64, Vec<bool>)> {
        // Map group -> position in `states` for minima-conflict lookups.
        let mut pos_of = vec![usize::MAX; self.sorted_groups.len()];
        for (i, s) in states.iter().enumerate() {
            pos_of[s.group] = i;
        }
        // Candidate pairs: minima that conflict.
        let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
        let mut hot = vec![false; states.len()];
        for (i, s) in states.iter().enumerate() {
            for c in &self.model.conflicts[s.min_var.index()] {
                let j = pos_of[self.local_of[c.index()]];
                if j == usize::MAX || j <= i {
                    continue;
                }
                if states[j].min_var != *c {
                    continue;
                }
                hot[i] = true;
                hot[j] = true;
                let w = states[i].regret.min(states[j].regret);
                if w.is_infinite() {
                    return None; // two forced minima conflict: dead end
                }
                if w > 0.0 {
                    pairs.push((w, i, j));
                }
            }
        }
        // Greedy matching, heaviest pairs first.
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2))));
        let mut used = vec![false; states.len()];
        let mut extra = 0.0;
        for (w, i, j) in pairs {
            if !used[i] && !used[j] {
                used[i] = true;
                used[j] = true;
                extra += w;
            }
        }
        Some((extra, hot))
    }

    fn dfs(&mut self, cost_so_far: f64) {
        if self.aborted {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.aborted = true;
            return;
        }
        let Some(states) = self.scan() else { return };
        let base: f64 = sum_ordered(states.iter().map(|s| s.min_cost));
        if cost_so_far + base >= self.best_cost {
            return;
        }
        let Some((extra, hot)) = self.bound_extra(&states) else {
            return;
        };
        if cost_so_far + base + extra >= self.best_cost {
            return;
        }

        // Fail-first among the hot groups: fewest selectable vars;
        // tie-break on largest regret, then lowest group index for
        // determinism. No hot group left: the minima attain the bound.
        let Some(pick) = states
            .iter()
            .zip(&hot)
            .filter_map(|(s, &h)| h.then_some(s))
            .min_by(|a, b| {
                a.selectable
                    .cmp(&b.selectable)
                    .then(b.regret.total_cmp(&a.regret))
                    .then(a.group.cmp(&b.group))
            })
        else {
            let mut full = self.assigned.clone();
            for s in &states {
                full[s.group] = s.min_var;
            }
            self.best_cost = cost_so_far + base;
            self.best = Some(full);
            return;
        };
        let g = pick.group;
        let vars = &self.sorted_groups[g];

        self.done[g] = true;
        for &var in vars.iter() {
            if self.forbidden[var.index()] > 0 {
                continue;
            }
            let cost = cost_so_far + self.model.costs[var.index()];
            if cost + (base - pick.min_cost) >= self.best_cost {
                // Candidates are cost-sorted: everything after is no better.
                break;
            }
            for &c in &self.model.conflicts[var.index()] {
                self.forbidden[c.index()] += 1;
            }
            self.assigned[g] = var;
            self.dfs(cost);
            for &c in &self.model.conflicts[var.index()] {
                self.forbidden[c.index()] -= 1;
            }
            if self.aborted {
                break;
            }
        }
        self.done[g] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_model_trivially_optimal() {
        let m = Model::new();
        let s = m.solve(SolveLimits::default()).unwrap();
        assert_eq!(s.objective, 0.0);
        assert!(s.proven_optimal());
    }

    #[test]
    fn single_group_picks_cheapest() {
        let mut m = Model::new();
        let v: Vec<VarId> = [4.0, 1.0, 3.0].iter().map(|&c| m.add_var(c)).collect();
        m.add_exactly_one(v.clone());
        let s = m.solve(SolveLimits::default()).unwrap();
        assert_eq!(s.chosen, vec![Some(v[1])]);
        assert_eq!(s.objective, 1.0);
    }

    #[test]
    fn conflict_forces_second_best() {
        let mut m = Model::new();
        let a0 = m.add_var(0.0);
        let a1 = m.add_var(10.0);
        let b0 = m.add_var(0.0);
        let b1 = m.add_var(1.0);
        m.add_exactly_one([a0, a1]);
        m.add_exactly_one([b0, b1]);
        m.add_conflict(a0, b0);
        let s = m.solve(SolveLimits::default()).unwrap();
        assert_eq!(s.objective, 1.0);
        assert!(s.is_chosen(a0) && s.is_chosen(b1));
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let a = m.add_var(1.0);
        let b = m.add_var(1.0);
        m.add_exactly_one([a]);
        m.add_exactly_one([b]);
        m.add_conflict(a, b);
        assert_eq!(m.solve(SolveLimits::default()), Err(SolveError::Infeasible));
    }

    #[test]
    fn ungrouped_variable_rejected() {
        let mut m = Model::new();
        let a = m.add_var(1.0);
        let _loose = m.add_var(2.0);
        m.add_exactly_one([a]);
        assert!(matches!(
            m.solve(SolveLimits::default()),
            Err(SolveError::UngroupedVariable { .. })
        ));
    }

    /// Eight groups whose minima conflict in a chain: solving needs
    /// branching, so one node cannot find any assignment.
    fn conflict_chain(m: &mut Model) {
        let mut prev: Option<VarId> = None;
        for _ in 0..8 {
            let x = m.add_var(1.0);
            let y = m.add_var(2.0);
            m.add_exactly_one([x, y]);
            if let Some(px) = prev {
                m.add_conflict(px, x);
            }
            prev = Some(x);
        }
    }

    #[test]
    fn node_limit_reported() {
        let mut m = Model::new();
        conflict_chain(&mut m);
        let s = m.solve(SolveLimits { max_nodes: 1 }).unwrap();
        assert!(s.nodes >= 1);
        assert!(!s.proven_optimal());
        assert_eq!(s.unproven_components, 1);
        assert_eq!(s.chosen, vec![None; 8], "no incumbent within one node");
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn each_component_gets_its_own_budget() {
        // Component 1: two groups whose second-best options conflict, so
        // the minima attain the bound at the root (one node).
        let mut m = Model::new();
        let a = [m.add_var(3.0), m.add_var(4.0)];
        let b = [m.add_var(5.0), m.add_var(6.0)];
        m.add_exactly_one(a);
        m.add_exactly_one(b);
        m.add_conflict(a[1], b[1]);
        // Component 2: the chain, which needs more than one node.
        conflict_chain(&mut m);
        // Component 3: a conflict-free singleton.
        let c = m.add_var(0.5);
        m.add_exactly_one([c]);
        let s = m.solve(SolveLimits { max_nodes: 1 }).unwrap();
        assert_eq!(s.unproven_components, 1);
        assert!(!s.proven_optimal());
        assert_eq!(&s.chosen[..2], &[Some(a[0]), Some(b[0])]);
        assert_eq!(&s.chosen[2..10], &[None; 8]);
        assert_eq!(s.chosen[10], Some(c));
        assert_eq!(s.objective, 3.0 + 5.0 + 0.5);

        // The same budget is enough for the chain on its own once it may
        // spend it all: every limit between its first incumbent and its
        // proof keeps that incumbent.
        let mut chain = Model::new();
        conflict_chain(&mut chain);
        let proof = chain.solve(SolveLimits::default()).unwrap();
        assert!(proof.proven_optimal());
        let partial = (1..proof.nodes)
            .map(|n| chain.solve(SolveLimits { max_nodes: n }).unwrap())
            .find(|s| s.chosen.iter().all(Option::is_some))
            .expect("an incumbent before the proof");
        assert!(!partial.proven_optimal());
        assert_eq!(partial.unproven_components, 1);
        assert_conflict_free(&chain, &partial);
    }

    #[test]
    fn negative_costs_supported() {
        let mut m = Model::new();
        let a = m.add_var(-5.0);
        let b = m.add_var(-1.0);
        m.add_exactly_one([a, b]);
        let s = m.solve(SolveLimits::default()).unwrap();
        assert_eq!(s.objective, -5.0);
    }

    #[test]
    fn error_display() {
        assert_eq!(SolveError::Infeasible.to_string(), "model is infeasible");
        assert!(SolveError::UngroupedVariable { var: VarId(7) }
            .to_string()
            .contains('7'));
    }

    fn assert_conflict_free(m: &Model, s: &Solution) {
        assert_eq!(s.chosen.len(), m.num_groups());
        let chosen: Vec<VarId> = s.chosen.iter().flatten().copied().collect();
        for (i, a) in chosen.iter().enumerate() {
            for b in &chosen[i + 1..] {
                assert!(
                    !m.conflicts[a.index()].contains(b),
                    "conflicting pair chosen"
                );
            }
        }
    }

    fn random_model(rng: &mut StdRng, groups: usize, vars_per: usize, conflicts: usize) -> Model {
        random_model_with(rng, groups, vars_per, conflicts, |rng| {
            rng.gen_range(0..100) as f64
        })
    }

    fn random_model_with(
        rng: &mut StdRng,
        groups: usize,
        vars_per: usize,
        conflicts: usize,
        mut cost: impl FnMut(&mut StdRng) -> f64,
    ) -> Model {
        let mut m = Model::new();
        let mut all = Vec::new();
        for _ in 0..groups {
            let vs: Vec<VarId> = (0..vars_per).map(|_| m.add_var(cost(rng))).collect();
            all.extend(vs.iter().copied());
            m.add_exactly_one(vs);
        }
        for _ in 0..conflicts {
            let a = all[rng.gen_range(0..all.len())];
            let b = all[rng.gen_range(0..all.len())];
            m.add_conflict(a, b);
        }
        m
    }

    /// Adds `pairs` conflicts between the cheapest variables of random
    /// group pairs, the shape that makes the sum-of-minima bound loose.
    fn plant_conflicting_minima(m: &mut Model, rng: &mut StdRng, pairs: usize) {
        let minima: Vec<VarId> = m
            .groups
            .iter()
            .map(|g| {
                *g.iter()
                    .min_by(|a, b| m.costs[a.index()].total_cmp(&m.costs[b.index()]))
                    .unwrap()
            })
            .collect();
        for _ in 0..pairs {
            let a = minima[rng.gen_range(0..minima.len())];
            let b = minima[rng.gen_range(0..minima.len())];
            m.add_conflict(a, b);
        }
    }

    #[test]
    fn matches_exhaustive_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for trial in 0..200 {
            let m = random_model(&mut rng, 4, 4, 6);
            let bb = m.solve(SolveLimits::default());
            let ex = m.solve_exhaustive();
            match (bb, ex) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.objective, b.objective,
                        "trial {trial}: objective mismatch"
                    );
                    assert!(a.proven_optimal());
                }
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                (a, b) => panic!("trial {trial}: disagreement {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn chain_of_conflicting_minima_solves_in_bounded_nodes() {
        // A 60-group chain where every group's cheapest var conflicts with
        // the neighbours' cheapest vars: the naive sum-of-minima bound
        // explores an exponential plateau; the matching bound keeps this
        // polynomial.
        let mut m = Model::new();
        let mut prev_min: Option<VarId> = None;
        for g in 0..60 {
            let a = m.add_var(f64::from(g % 3)); // cheap
            let b = m.add_var(f64::from(g % 3) + 2.0); // regret 2
            m.add_exactly_one([a, b]);
            if let Some(p) = prev_min {
                m.add_conflict(p, a);
            }
            prev_min = Some(a);
        }
        let s = m.solve(SolveLimits { max_nodes: 200_000 }).unwrap();
        assert!(
            s.proven_optimal(),
            "explored {} nodes without proof",
            s.nodes
        );
        // Alternating chain: half the groups pay the +2 regret.
        assert!(s.objective > 0.0);
    }

    #[test]
    fn grid_of_conflicts_matches_exhaustive() {
        // 3x3 grid of groups with conflicts between 4-neighbours' minima.
        let mut m = Model::new();
        let mut mins = Vec::new();
        for g in 0..9 {
            let a = m.add_var(1.0 + f64::from(g) * 0.1);
            let b = m.add_var(3.0);
            m.add_exactly_one([a, b]);
            mins.push(a);
        }
        for r in 0..3 {
            for c in 0..3 {
                let i = r * 3 + c;
                if c + 1 < 3 {
                    m.add_conflict(mins[i], mins[i + 1]);
                }
                if r + 1 < 3 {
                    m.add_conflict(mins[i], mins[i + 3]);
                }
            }
        }
        let bb = m.solve(SolveLimits::default()).unwrap();
        let ex = m.solve_exhaustive().unwrap();
        assert_eq!(bb.objective, ex.objective);
        assert!(bb.proven_optimal());
    }

    #[test]
    fn plateau_with_conflicting_minima_proves_in_few_nodes() {
        // Shaped like a measured Eq. 12 component: 300 groups joined into
        // one component by conflicts between their priciest options, a
        // quarter of them on a plateau of regret exactly 1.0, and two hub
        // groups whose minima conflict with three groups' minima each.
        // The hubs' 12.0 regret exceeds their three neighbours' 3 × 3.5,
        // so the optimum leaves the hubs at their minima and moves the
        // neighbours, 14.0 above the matching bound's 2 × 3.5. Branching
        // on the plateau cannot close that gap.
        let hubs = [0usize, 100];
        let spokes = [2usize, 3, 4, 102, 103, 104];
        let mut m = Model::new();
        let mut groups: Vec<Vec<VarId>> = Vec::new();
        for g in 0..300usize {
            let c = 10.0 + ((g * 37) % 101) as f64 * 0.37;
            let regrets: &[f64] = if hubs.contains(&g) {
                &[12.0, 40.0]
            } else if g % 4 == 1 {
                &[1.0]
            } else {
                &[3.5, 40.0]
            };
            let vars: Vec<VarId> = std::iter::once(c)
                .chain(regrets.iter().map(|r| c + r))
                .map(|x| m.add_var(x))
                .collect();
            m.add_exactly_one(vars.iter().copied());
            groups.push(vars);
        }
        for w in groups.windows(2) {
            m.add_conflict(*w[0].last().unwrap(), *w[1].last().unwrap());
        }
        for (h, star) in hubs.iter().zip(spokes.chunks(3)) {
            for &sp in star {
                m.add_conflict(groups[*h][0], groups[sp][0]);
            }
        }
        let s = m.solve(SolveLimits { max_nodes: 1_000 }).unwrap();
        assert!(
            s.proven_optimal(),
            "explored {} nodes without proof",
            s.nodes
        );
        let expected: Vec<Option<VarId>> = groups
            .iter()
            .enumerate()
            .map(|(g, vars)| Some(vars[usize::from(spokes.contains(&g))]))
            .collect();
        assert_eq!(s.chosen, expected);
        let objective = sum_ordered(expected.iter().flatten().map(|&v| m.cost(v)));
        assert_eq!(s.objective.to_bits(), objective.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn branch_and_bound_equals_exhaustive(
            seed in 0u64..10_000,
            groups in 1usize..5,
            vars_per in 1usize..4,
            conflicts in 0usize..8,
            planted in 0usize..4,
            fractional in 0u8..2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = if fractional == 1 {
                random_model_with(&mut rng, groups, vars_per, conflicts, |rng| {
                    rng.gen_range(0.0..100.0)
                })
            } else {
                random_model(&mut rng, groups, vars_per, conflicts)
            };
            plant_conflicting_minima(&mut m, &mut rng, planted);
            match (m.solve(SolveLimits::default()), m.solve_exhaustive()) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits());
                    prop_assert!(a.proven_optimal());
                    assert_conflict_free(&m, &a);
                }
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                (a, b) => prop_assert!(false, "disagreement {:?} vs {:?}", a, b),
            }
        }

        #[test]
        fn chosen_selection_is_conflict_free(
            seed in 0u64..10_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = random_model(&mut rng, 5, 3, 5);
            if let Ok(s) = m.solve(SolveLimits::default()) {
                assert_conflict_free(&m, &s);
            }
        }
    }
}
