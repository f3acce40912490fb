//! Sharing is transparent to every static pass, and every static pass
//! is linear in a shared DAG's distinct nodes.
//!
//! The first test builds random DAGs with physically reused `Arc`
//! subtrees and ill-typed mutations, and compares each pass on the DAG
//! against the same pass on its unshared deep copy (the unfolded tree,
//! with no `Shared` node left, so no memo is ever consulted). The
//! second runs every pass on WL readouts whose unfolded trees exceed
//! 2^40 nodes, which an unfolding walk could never finish.

use std::sync::Arc;

use gel_graph::random::{erdos_renyi, with_random_real_labels};
use gel_graph::Graph;
use gel_lang::analysis::{analyze, Fragment};
use gel_lang::ast::build;
use gel_lang::eval::{check_against_graph, EvalError};
use gel_lang::random_expr::{
    random_gel_graph, random_mpnn_graph, random_mpnn_vertex, RandomExprConfig,
};
use gel_lang::wl_sim::{cr_graph_expr, k_wl_graph_expr};
use gel_lang::{expr_dag_hash, Expr, TypeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rebuilds random expressions into DAGs: random subtrees are wrapped
/// in `Shared` and pooled, pooled subtrees are spliced back in at other
/// positions, and (at `mutation_rate`) atoms and aggregations are made
/// ill-typed or out of range for the graph's labels.
struct Sharer {
    rng: StdRng,
    pool: Vec<Arc<Expr>>,
    mutation_rate: f64,
    reused: usize,
}

impl Sharer {
    fn mutate(&mut self) -> bool {
        self.rng.gen_bool(self.mutation_rate)
    }

    /// Rebuilds `e`; `shareable` is false in guard position, where the
    /// MPNN analysis deliberately matches the bare edge atom only.
    fn rebuild(&mut self, e: &Expr, shareable: bool) -> Expr {
        let rebuilt = match e {
            Expr::Label { j, var } => {
                let j = if self.mutate() { j + self.rng.gen_range(1..4usize) } else { *j };
                Expr::Label { j, var: self.var(*var) }
            }
            Expr::LabelVec { var, dim } => {
                if self.mutate() {
                    // Same dimension, label component possibly outside
                    // the graph's label dimension.
                    build::lab(self.rng.gen_range(0..3usize), self.var(*var))
                } else {
                    let dim = if self.mutate() { dim + 1 } else { *dim };
                    Expr::LabelVec { var: self.var(*var), dim }
                }
            }
            Expr::Edge { from, to } => {
                let to = if self.mutate() { *from } else { self.var(*to) };
                Expr::Edge { from: self.var(*from), to }
            }
            Expr::Cmp { a, op, b } => {
                let b = if self.mutate() { *a } else { self.var(*b) };
                Expr::Cmp { a: self.var(*a), op: *op, b }
            }
            Expr::Const { values } => Expr::Const { values: values.clone() },
            Expr::Apply { func, args } => Expr::Apply {
                func: func.clone(),
                args: args.iter().map(|a| self.rebuild(a, true)).collect(),
            },
            Expr::Aggregate { agg, over, value, guard } => {
                let mut over = over.clone();
                if self.mutate() {
                    match self.rng.gen_range(0..3) {
                        0 => over.clear(),
                        1 => over.push(over[0]),
                        _ => over.push(0),
                    }
                }
                let value = Box::new(self.rebuild(value, true));
                let guard = if self.mutate() {
                    Some(Box::new(build::lab_vec(over.first().copied().unwrap_or(1), 2)))
                } else {
                    guard.as_ref().map(|g| Box::new(self.rebuild(g, false)))
                };
                Expr::Aggregate { agg: *agg, over, value, guard }
            }
            Expr::Shared(rc) => Expr::Shared(Arc::new(self.rebuild(rc, true))),
        };
        if !shareable {
            return rebuilt;
        }
        match self.rng.gen_range(0..10) {
            0..=2 => {
                let rc = Arc::new(rebuilt);
                self.pool.push(Arc::clone(&rc));
                Expr::Shared(rc)
            }
            3 | 4 => {
                // Splice in a pooled subtree; when `rebuilt` type-checks,
                // only one of the same dimension, so the DAG stays
                // well-typed unless a mutation made it otherwise.
                let want = rebuilt.validate();
                let fits: Vec<usize> = (0..self.pool.len())
                    .filter(|&i| want.is_err() || self.pool[i].validate() == want)
                    .collect();
                if fits.is_empty() {
                    return rebuilt;
                }
                self.reused += 1;
                let i = fits[self.rng.gen_range(0..fits.len())];
                Expr::Shared(Arc::clone(&self.pool[i]))
            }
            _ => rebuilt,
        }
    }

    /// Keeps a variable, or (as a mutation) zeroes it.
    fn var(&mut self, v: u8) -> u8 {
        if self.mutate() {
            0
        } else {
            v
        }
    }
}

/// The unshared deep copy: the unfolded tree, every `Shared` node
/// replaced by a copy of its contents.
fn unfold(e: &Expr) -> Expr {
    match e {
        Expr::Apply { func, args } => {
            Expr::Apply { func: func.clone(), args: args.iter().map(unfold).collect() }
        }
        Expr::Aggregate { agg, over, value, guard } => Expr::Aggregate {
            agg: *agg,
            over: over.clone(),
            value: Box::new(unfold(value)),
            guard: guard.as_ref().map(|g| Box::new(unfold(g))),
        },
        Expr::Shared(rc) => unfold(rc),
        leaf => leaf.clone(),
    }
}

/// Asserts that every static pass agrees on `dag` and `tree`.
fn assert_passes_agree(dag: &Expr, tree: &Expr, graphs: &[Graph], case: u64) {
    let v = dag.validate();
    assert_eq!(v, tree.validate(), "validate, case {case}");
    if v.is_ok() {
        assert_eq!(dag.dim(), tree.dim(), "dim, case {case}");
    }
    for g in graphs {
        assert_eq!(
            check_against_graph(dag, g),
            check_against_graph(tree, g),
            "check_against_graph (label dim {}), case {case}",
            g.label_dim()
        );
    }
    assert_eq!(dag.free_vars(), tree.free_vars(), "free_vars, case {case}");
    assert_eq!(dag.all_vars(), tree.all_vars(), "all_vars, case {case}");
    assert_eq!(dag.size(), tree.size(), "size, case {case}");
    assert_eq!(dag.structural_hash(), tree.structural_hash(), "structural_hash, case {case}");
    assert_eq!(expr_dag_hash(dag), dag.structural_hash(), "expr_dag_hash, case {case}");
    assert_eq!(analyze(dag), analyze(tree), "analyze, case {case}");
}

/// Which outcome a case produced on `g`, for the coverage check.
fn outcome(e: &Expr, g: &Graph) -> &'static str {
    match check_against_graph(e, g) {
        Ok(()) => "ok",
        Err(EvalError::Type(TypeError::FuncDimension { .. })) => "func-dim",
        Err(EvalError::Type(TypeError::GuardDimension(_))) => "guard-dim",
        Err(EvalError::Type(TypeError::BadAggregationVars)) => "agg-vars",
        Err(EvalError::Type(TypeError::RepeatedVariable(_))) => "repeated-var",
        Err(EvalError::Type(TypeError::ZeroVariable)) => "zero-var",
        Err(EvalError::LabelIndex { .. }) => "label-index",
        Err(EvalError::LabelVecDim { .. }) => "labelvec-dim",
    }
}

#[test]
fn sharing_is_transparent_to_every_pass() {
    let cfg = RandomExprConfig { label_dim: 1, max_depth: 6, ..RandomExprConfig::default() };
    let mut graph_rng = StdRng::seed_from_u64(0x5A4E);
    let base = erdos_renyi(5, 0.5, &mut graph_rng);
    let graphs: Vec<Graph> =
        (1..=3).map(|d| with_random_real_labels(&base, d, &mut graph_rng)).collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut reused_cases = 0;
    for case in 0..600u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let e = match case % 3 {
            0 => random_mpnn_vertex(&cfg, &mut rng),
            1 => random_mpnn_graph(&cfg, &mut rng),
            _ => random_gel_graph(&cfg, rng.gen_range(2..=4), &mut rng),
        };
        let mutation_rate = if case % 2 == 0 { 0.0 } else { 0.04 };
        let mut sharer = Sharer { rng, pool: Vec::new(), mutation_rate, reused: 0 };
        let dag = sharer.rebuild(&e, true);
        if sharer.reused > 0 {
            reused_cases += 1;
        }
        assert_passes_agree(&dag, &unfold(&dag), &graphs, case);
        seen.insert(outcome(&dag, &graphs[0]));
    }
    // The generator reaches every outcome the passes can report.
    let all = [
        "ok",
        "func-dim",
        "guard-dim",
        "agg-vars",
        "repeated-var",
        "zero-var",
        "label-index",
        "labelvec-dim",
    ];
    for o in all {
        assert!(seen.contains(o), "no case produced {o}; saw {seen:?}");
    }
    assert!(reused_cases >= 300, "only {reused_cases} of 600 cases reused a shared subtree");
}

/// A graph for the label checks: label dimension 1, like the readouts.
fn small_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(7);
    let g = erdos_renyi(6, 0.5, &mut rng);
    with_random_real_labels(&g, 1, &mut rng)
}

#[test]
fn static_passes_finish_on_readouts_beyond_two_to_the_forty_nodes() {
    let g = small_graph();
    for (expr, fragment) in
        [(cr_graph_expr(1, 14), Fragment::Mpnn), (k_wl_graph_expr(2, 1, 11), Fragment::Gel(3))]
    {
        assert!(expr.size() > 1 << 40, "unfolded size {} is not beyond 2^40", expr.size());
        assert_eq!(expr.validate(), Ok(2));
        assert_eq!(expr.dim(), 2);
        assert_eq!(check_against_graph(&expr, &g), Ok(()));
        assert!(expr.free_vars().is_empty());
        assert_eq!(expr.all_vars().len(), if fragment == Fragment::Mpnn { 2 } else { 3 });
        assert_eq!(expr.structural_hash(), expr_dag_hash(&expr));
        let report = analyze(&expr);
        assert_eq!(report.fragment, fragment);
        assert!(report.free_vars.is_empty());
    }
}
