//! The `suite` workload: repeated runs of the experiment suite from a
//! cold WL-colouring cache, beside an L1-shaped batched GIN training
//! loop built from the public calls of `train_graph_model_batched`.

use std::time::Instant;

use gel_gnn::{train_graph_model_batched, GraphModel, Readout};
use gel_graph::datasets::balanced_molecule_dataset_by;
use gel_graph::{BatchedGraphs, Graph};
use gel_tensor::{Activation, Adam, Loss, Matrix, Optimizer, Parameterized};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{heap_mb, median, windowed_quantile, HeapSampler, Report, TAIL_Q};
use crate::trace::Recorder;
use crate::Args;

/// The experiment ids `run_all_timed` reports, in order.
pub const EXPERIMENT_IDS: [&str; 19] = [
    "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15",
    "E16", "L1", "L2", "L3",
];
/// Training steps per episode; each episode starts from the seeded
/// initial model and must reproduce the library loop's losses. The
/// first step of an episode sizes every buffer (it belongs to
/// `setup_s`), so the step latencies leave it out.
const EPISODE: usize = 200;
/// Model and dataset set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Training episodes after each suite run: about a quarter of a round.
const EPISODES_PER_ROUND: usize = 3;

pub struct Inputs {
    /// L1's training split: 96 molecules with 8 heavy atoms each.
    graphs: Vec<Graph>,
    targets: Matrix,
    model_seed: u64,
    /// `train_graph_model_batched` losses over one episode.
    expected_losses: Vec<f64>,
}

fn model(seed: u64) -> GraphModel {
    let mut m =
        GraphModel::gin(4, 16, 2, 1, Activation::Identity, &mut StdRng::seed_from_u64(seed));
    m.readout = Readout::Mean;
    m
}

const LEARNING_RATE: f64 = 0.02;

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let molecules = balanced_molecule_dataset_by(120, 8, |m| m.hetero_pair, &mut rng);
    let train = &molecules[..molecules.len() * 4 / 5];
    let graphs: Vec<Graph> = train.iter().map(|m| m.graph.clone()).collect();
    let targets =
        Matrix::from_vec(train.len(), 1, train.iter().map(|m| f64::from(m.hetero_pair)).collect());
    let model_seed = seed ^ 0x61_4E;
    let batch = BatchedGraphs::pack(graphs.iter());
    let log = train_graph_model_batched(
        &mut model(model_seed),
        &batch,
        &targets,
        Loss::BceWithLogits,
        &mut Adam::new(LEARNING_RATE),
        EPISODE,
    );
    Inputs { graphs, targets, model_seed, expected_losses: log.losses }
}

/// What the measured rounds saw.
#[derive(Default)]
struct Log {
    suite_s: Vec<f64>,
    per_experiment: Vec<Vec<(&'static str, f64)>>,
    gemm_s: Vec<f64>,
    /// Warm step latencies (every step but each episode's first).
    step_ms: Vec<f64>,
    episodes: usize,
    /// `gel_tensor::buffer_allocs` growth during training steps.
    allocs: u64,
}

/// One `run_all_timed` from a cold colouring cache, as every run of
/// `all` starts; every experiment must pass.
fn suite_once(rec: &mut Recorder, log: &mut Log, report: &mut Report) {
    gel_wl::cache::clear_cache();
    let before = gel_obs::snapshot();
    let t = Instant::now();
    let results = rec.request("suite.run", log.suite_s.len() as u64, |rec| {
        rec.stage("experiments.run_all_timed", || gel_experiments::run_all_timed(false))
    });
    log.suite_s.push(t.elapsed().as_secs_f64());
    log.gemm_s.push(gel_obs::snapshot().since(&before).leaf_span_total("tensor.").secs);
    report.op(results.len() == EXPERIMENT_IDS.len() && results.iter().all(|(r, _)| r.passed()));
    log.per_experiment.push(results.iter().map(|(r, s)| (r.id, *s)).collect());
}

/// One training episode from the seeded initial model; its losses
/// must equal `train_graph_model_batched`'s bit for bit.
fn episode(
    inputs: &Inputs,
    batch: &BatchedGraphs,
    rec: &mut Recorder,
    log: &mut Log,
    report: &mut Report,
) {
    let mut m = model(inputs.model_seed);
    let mut opt = Adam::new(LEARNING_RATE);
    let (mut pred, mut grad) = (Matrix::default(), Matrix::default());
    let mut ok = true;
    let allocs = gel_tensor::buffer_allocs();
    for step in 0..EPISODE {
        let t = Instant::now();
        let loss = rec.request("train.step", (log.episodes * EPISODE + step) as u64, |rec| {
            m.zero_grads();
            rec.stage("gnn.forward", || m.forward_batched_into(batch, &mut pred));
            let l = rec.stage("tensor.loss", || {
                Loss::BceWithLogits.eval_into(&pred, &inputs.targets, &mut grad)
            });
            rec.stage("gnn.backward", || m.backward_batched(batch, &grad));
            rec.stage("tensor.optim", || opt.step(&mut m));
            l
        });
        if step > 0 {
            log.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        ok &= loss.to_bits() == inputs.expected_losses[step].to_bits();
    }
    log.allocs += gel_tensor::buffer_allocs() - allocs;
    report.op(ok);
    log.episodes += 1;
}

/// Measured rounds, each one suite run and [`EPISODES_PER_ROUND`]
/// training episodes, so both sample the whole run: `rounds` of them,
/// or (when `None`) until `budget_s` seconds of measured time.
fn run_rounds(
    inputs: &Inputs,
    batch: &BatchedGraphs,
    rec: &mut Recorder,
    rounds: Option<usize>,
    budget_s: f64,
    report: &mut Report,
) -> Log {
    let mut log = Log::default();
    let mut measured = 0.0;
    while rounds.map_or(measured < budget_s, |k| log.suite_s.len() < k) {
        let t = Instant::now();
        suite_once(rec, &mut log, report);
        for _ in 0..EPISODES_PER_ROUND {
            episode(inputs, batch, rec, &mut log, report);
        }
        measured += t.elapsed().as_secs_f64();
    }
    log
}

/// Packs the batch, builds the model and takes the first (cold) step,
/// [`SETUPS`] times; returns the packed batch and the median seconds.
fn set_up(inputs: &Inputs) -> (BatchedGraphs, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let batch = BatchedGraphs::pack(inputs.graphs.iter());
        let mut m = model(inputs.model_seed);
        let (mut pred, mut grad) = (Matrix::default(), Matrix::default());
        m.forward_batched_into(&batch, &mut pred);
        Loss::BceWithLogits.eval_into(&pred, &inputs.targets, &mut grad);
        m.backward_batched(&batch, &grad);
        Adam::new(LEARNING_RATE).step(&mut m);
        times.push(t.elapsed().as_secs_f64());
        last = Some(batch);
    }
    (last.expect("at least one set-up"), median(&times))
}

pub fn run(args: &Args, inputs: &Inputs, report: &mut Report) {
    let heap_baseline = heap_mb();
    let (batch, setup_s) = set_up(inputs);

    if !args.trace {
        let mut off = Recorder::new(false, Instant::now());
        let heap = HeapSampler::start(heap_baseline);
        let log = run_rounds(inputs, &batch, &mut off, None, args.seconds, report);
        let (heap_mb, samples) = heap.median_mb();
        report.add("heap_mb", heap_mb, "MiB", samples);
        let steps = log.step_ms.len();
        report.add("setup_s", setup_s, "s", SETUPS);
        report.add("throughput", 1.0 / median(&log.suite_s), "1/s", log.suite_s.len());
        report.add("latency_p50_ms", median(&log.step_ms), "ms", steps);
        return;
    }

    // Traced run: untraced rounds on half the time, then as many rounds
    // again with spans on.
    let epoch = Instant::now();
    let mut off = Recorder::new(false, epoch);
    let t = Instant::now();
    let plain = run_rounds(inputs, &batch, &mut off, None, args.seconds / 2.0, report);
    let untraced_wall = t.elapsed().as_secs_f64();
    let plain_steps = plain.step_ms.len();
    report.add("train.step_p95_ms", windowed_quantile(&plain.step_ms, TAIL_Q), "ms", plain_steps);

    let mut rec = Recorder::new(true, epoch);
    let t = Instant::now();
    let log = run_rounds(inputs, &batch, &mut rec, Some(plain.suite_s.len()), 0.0, report);
    let traced_wall = t.elapsed().as_secs_f64();

    // Per step, every step counted (the cold first step of each
    // episode included).
    let steps = log.episodes * EPISODE;
    let times = rec.self_times();
    let per_step_ms =
        |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6 / steps as f64);
    for (metric, span) in [
        ("gnn.forward_ms", "gnn.forward"),
        ("gnn.backward_ms", "gnn.backward"),
        ("tensor.loss_ms", "tensor.loss"),
        ("tensor.optim_ms", "tensor.optim"),
        ("train.residual_ms", "train.step"),
    ] {
        report.add(metric, per_step_ms(span), "ms", steps);
    }
    report.add("tensor.buffer_allocs", log.allocs as f64 / steps as f64, "1/step", steps);
    report.add("tensor.gemm_s", median(&log.gemm_s), "s", log.gemm_s.len());
    for id in EXPERIMENT_IDS {
        let secs: Vec<f64> = log
            .per_experiment
            .iter()
            .filter_map(|run| run.iter().find(|(i, _)| *i == id).map(|&(_, s)| s))
            .collect();
        let value = if secs.is_empty() { 0.0 } else { median(&secs) };
        report.add(format!("experiments.{id}.wall_s"), value, "s", secs.len());
    }
    report.add("trace.overhead_ratio", traced_wall / untraced_wall, "ratio", 2);
    report.trace = Some(rec);
}
