//! GEL evaluation workloads: the sum-product probes, the skewed hub
//! graph, the table-density sweep (DESIGN.md §7) and the
//! worst-case-optimal join sweep (DESIGN.md §12).
//!
//! Both sweeps run pinned to one thread: the sparse kernels are serial
//! by design, so they compare representations and join plans, not
//! thread scaling.

use gel_graph::random::erdos_renyi;
use gel_graph::{Graph, GraphBuilder};
use gel_lang::ast::build;
use gel_lang::{Agg, EvalEngine, EvalOptions, Expr, Func};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{min_secs_per_iter, ratio, with_threads, Scale, BENCH_SEED};

/// The GEL₃ sum-product probe of the density sweep: the global
/// triangle count `Σ_{x1,x2,x3} E(x1,x2)·E(x2,x3)·E(x1,x3)`, whose
/// dense evaluation sweeps all `n³` cells while the sparse path runs
/// FAQ-style elimination over the `O(nnz)` edge lists.
pub fn triangle_probe() -> Expr {
    build::agg_over(
        Agg::Sum,
        vec![1, 2, 3],
        build::apply(
            Func::Mul { arity: 3, dim: 1 },
            vec![build::edge(1, 2), build::edge(2, 3), build::edge(1, 3)],
        ),
        None,
    )
}

/// A closed GEL₄ sum over the indicator product of a shape's edges.
fn cyclic_probe(atoms: Vec<Expr>) -> Expr {
    let arity = atoms.len();
    build::agg_over(
        Agg::Sum,
        vec![1, 2, 3, 4],
        build::apply(Func::Mul { arity, dim: 1 }, atoms),
        None,
    )
}

/// Global 4-cycle count — induced width 2, the canonical case where a
/// binary join plan materializes quadratically more intermediate
/// tuples than the output holds.
fn cycle4_probe() -> Expr {
    cyclic_probe(vec![build::edge(1, 2), build::edge(2, 3), build::edge(3, 4), build::edge(1, 4)])
}

/// Global 4-clique count — all six edge atoms, the AGM-bound poster
/// child.
fn clique4_probe() -> Expr {
    cyclic_probe(vec![
        build::edge(1, 2),
        build::edge(1, 3),
        build::edge(1, 4),
        build::edge(2, 3),
        build::edge(2, 4),
        build::edge(3, 4),
    ])
}

/// The skewed wco gate instance: vertex 0 fans into a block of "mid"
/// vertices, every mid fans into a shared "leaf" block, and a few
/// leaves close back into a few mids. The binary plan's wedge
/// intermediate is `mids × leaves` sized regardless of how few cycles
/// close; the generic join's work tracks the homomorphism count.
fn hub_graph(n: usize) -> Graph {
    let mids = 1u32..=(n as u32 / 3);
    let leaves = (n as u32 / 3 + 1)..=(n as u32 - 2);
    let mut b = GraphBuilder::new(n);
    for m in mids.clone() {
        b.add_arc(0, m);
        for l in leaves.clone() {
            b.add_arc(m, l);
        }
    }
    for (i, l) in leaves.enumerate() {
        if i % 20 == 0 {
            for m in mids.clone().step_by(11) {
                b.add_arc(l, m);
            }
        }
    }
    b.build()
}

/// The seeded Erdős–Rényi instance of both sweeps at one grid point.
fn er_graph(n: usize, p: f64) -> Graph {
    erdos_renyi(n, p, &mut StdRng::seed_from_u64(BENCH_SEED ^ n as u64))
}

/// `(rounds, iters)` of every timed configuration in this module.
fn timing(scale: Scale) -> (u32, u32) {
    scale.pick((2, 3), (3, 8))
}

/// Min-over-rounds seconds per evaluation of `probe` on `g` through one
/// warmed engine with `opts`.
fn time_eval(scale: Scale, opts: EvalOptions, probe: &Expr, g: &Graph) -> f64 {
    let (rounds, iters) = timing(scale);
    let mut eng = EvalEngine::with_options(opts);
    min_secs_per_iter(rounds, iters, || {
        let _ = eng.eval(probe, g);
    })
}

/// One grid point of the density sweep.
#[derive(Debug, Clone, Copy)]
pub struct DensityPoint {
    /// Vertices.
    pub n: usize,
    /// Edge probability.
    pub density: f64,
    /// Seconds per dense-engine evaluation.
    pub dense_s: f64,
    /// Seconds per forced-sparse evaluation.
    pub sparse_s: f64,
}

impl DensityPoint {
    /// Dense time over sparse time.
    pub fn speedup(&self) -> f64 {
        ratio(self.dense_s, self.sparse_s)
    }
}

/// The triangle probe on an n × edge-density grid, dense engine vs
/// forced-sparse elimination.
#[derive(Debug, Clone)]
pub struct DensitySweep {
    /// Grid points, densities outermost, sizes ascending within each.
    pub points: Vec<DensityPoint>,
    /// Per density, the first swept n where sparse beats dense (`None`
    /// when dense stays ahead over the swept sizes).
    pub crossover: Vec<(f64, Option<usize>)>,
}

/// Runs the table-density sweep.
pub fn density_sweep(scale: Scale) -> DensitySweep {
    let sizes: &[usize] = scale.pick(&[12, 16], &[16, 32, 48, 64]);
    let densities: &[f64] = scale.pick(&[0.1], &[0.02, 0.1, 0.3]);
    let probe = triangle_probe();
    let dense = EvalOptions { sparse: false, ..EvalOptions::default() };
    let sparse = EvalOptions { sparse_min_cells: 0, ..EvalOptions::default() };
    with_threads(1, || {
        let mut points = Vec::new();
        let mut crossover = Vec::new();
        for &density in densities {
            let mut first = None;
            for &n in sizes {
                let g = er_graph(n, density);
                let dense_s = time_eval(scale, dense, &probe, &g);
                let sparse_s = time_eval(scale, sparse, &probe, &g);
                if first.is_none() && sparse_s < dense_s {
                    first = Some(n);
                }
                points.push(DensityPoint { n, density, dense_s, sparse_s });
            }
            crossover.push((density, first));
        }
        DensitySweep { points, crossover }
    })
}

/// One probe × instance point of the wco sweep.
#[derive(Debug, Clone, Copy)]
pub struct WcoPoint {
    /// `"cycle4"` or `"clique4"`.
    pub probe: &'static str,
    /// `"er"` (Erdős–Rényi, p = 0.02) or `"hub"` ([`hub_graph`]).
    pub graph: &'static str,
    /// Vertices.
    pub n: usize,
    /// Seconds per evaluation through the binary merge-join plan.
    pub binary_s: f64,
    /// Seconds per evaluation through the generic (leapfrog) join.
    pub wco_s: f64,
}

impl WcoPoint {
    /// Binary time over wco time.
    pub fn speedup(&self) -> f64 {
        ratio(self.binary_s, self.wco_s)
    }
}

/// Cyclic GEL₄ probes through the generic join kernel vs the binary
/// merge-join plan (the `wco: false` ablation), both forced sparse.
///
/// Two instance families, because they answer different questions. On
/// unskewed sparse Erdős–Rényi graphs the elimination intermediates
/// (wedge lists) are the same size as the join output, so both plans
/// are output-bound and the ratio hovers near 1×. On the hub graph
/// binary elimination must materialize the mids×leaves wedge table no
/// matter how few cycles close, while the generic join's work tracks
/// the homomorphism count; that point carries the ≥ 5× gate.
#[derive(Debug, Clone)]
pub struct WcoSweep {
    /// The Erdős–Rényi points, then the hub point last.
    pub points: Vec<WcoPoint>,
    /// Generic joins run over the sweep (always-on counter).
    pub joins: u64,
    /// Leapfrog seeks over the sweep (always-on counter).
    pub seeks: u64,
}

impl WcoSweep {
    /// Speedup on the hub graph.
    pub fn hub_speedup(&self) -> f64 {
        self.points.iter().find(|p| p.graph == "hub").expect("sweep has a hub point").speedup()
    }
}

/// Runs the wco sweep.
pub fn wco_sweep(scale: Scale) -> WcoSweep {
    let wco = EvalOptions { sparse_min_cells: 0, ..EvalOptions::default() };
    let binary = EvalOptions { wco: false, ..wco };
    let point = |probe, graph, pe: &Expr, g: &Graph| WcoPoint {
        probe,
        graph,
        n: g.num_vertices(),
        binary_s: time_eval(scale, binary, pe, g),
        wco_s: time_eval(scale, wco, pe, g),
    };
    with_threads(1, || {
        let joins = gel_lang::eval_wco_joins();
        let seeks = gel_lang::eval_wco_seeks();
        let mut points = Vec::new();
        for (name, probe) in [("cycle4", cycle4_probe()), ("clique4", clique4_probe())] {
            for n in [32, 64] {
                points.push(point(name, "er", &probe, &er_graph(n, 0.02)));
            }
        }
        points.push(point("cycle4", "hub", &cycle4_probe(), &hub_graph(64)));
        WcoSweep {
            points,
            joins: gel_lang::eval_wco_joins() - joins,
            seeks: gel_lang::eval_wco_seeks() - seeks,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plans the sweeps time against each other compute the same
    /// table, so every ratio compares equal work.
    #[test]
    fn swept_plans_agree_on_every_probe() {
        let dense = EvalOptions { sparse: false, ..EvalOptions::default() };
        let sparse = EvalOptions { sparse_min_cells: 0, ..EvalOptions::default() };
        let binary = EvalOptions { wco: false, ..sparse };
        for g in [hub_graph(24), er_graph(16, 0.3)] {
            for probe in [triangle_probe(), cycle4_probe(), clique4_probe()] {
                let want = EvalEngine::with_options(dense).eval(&probe, &g).to_dense();
                for opts in [sparse, binary] {
                    let got = EvalEngine::with_options(opts).eval(&probe, &g).to_dense();
                    assert_eq!(got, want, "{opts:?} disagrees with the dense plan");
                }
            }
        }
    }
}
