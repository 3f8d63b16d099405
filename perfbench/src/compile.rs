//! The compile lane: the inputs of `paper-suite` and `wide-sparse`, their
//! best-of-passes timing, their output checks, and the traced pass that
//! splits compile time by layer.

use crate::trace::Tracer;
use crate::Metrics;
use crate::{reference, stats};
use oneq::partition::{self, PartitionOptions};
use oneq::{CompiledProgram, Compiler, CompilerOptions};
use oneq_bench::scrape::stats_u64;
use oneq_bench::BenchKind;
use oneq_circuit::Circuit;
use oneq_hardware::{ExtendedLayer, LayerGeometry, ResourceKind};
use oneq_service::compile::{compile_record, CompileConfig, GeometryChoice};
use std::time::Instant;

/// The seed the committed expected outputs were recorded at.
pub const EXPECTED_SEED: u64 = 2023;

/// Depth and #fusions for every input at [`EXPECTED_SEED`], one
/// `workload input depth fusions` line each.
const EXPECTED: &str = include_str!("../expected/seed-2023.txt");

/// One compile input. Every input carries both its constructed circuit
/// and its QASM rendering, so each lane can reach it the way it needs.
pub struct Input {
    /// Stable name, also the record label.
    pub name: String,
    /// The circuit the compiler sees.
    pub circuit: Circuit,
    /// `circuit` rendered as OpenQASM 2.0.
    pub source: String,
    /// The record-path configuration equal to `compiler`'s options.
    pub config: CompileConfig,
    /// The compiler the direct path uses.
    pub compiler: Compiler,
    /// Time the `oneqc`/`oneqd` record path (`compile_record`, QASM
    /// parse included) instead of `Compiler::compile`.
    pub via_record: bool,
}

impl Input {
    fn constructed(name: String, circuit: Circuit, geometry: LayerGeometry, ext: usize) -> Input {
        let options = CompilerOptions::new(geometry)
            .with_resource_kind(ResourceKind::LINE3)
            .with_extension(ext);
        Input {
            source: circuit.to_qasm(),
            config: CompileConfig {
                geometry: GeometryChoice::Rect(geometry.rows(), geometry.cols()),
                extension: ext,
                ..CompileConfig::default()
            },
            compiler: Compiler::new(options),
            name,
            circuit,
            via_record: false,
        }
    }

    /// An input compiled through the record path with auto geometry.
    pub fn record(name: String, circuit: Circuit) -> Input {
        let side = oneq_baseline::physical_side(circuit.n_qubits(), ResourceKind::LINE3);
        let mut input = Input::constructed(name, circuit, LayerGeometry::square(side), 1);
        input.config = CompileConfig::default();
        input.via_record = true;
        input
    }

    /// One end-to-end compile: `(depth, fusions)`, or `None` when the
    /// record path reports an error.
    pub fn compile(&self) -> Option<(usize, usize)> {
        if self.via_record {
            let (record, ok) = compile_record(&self.name, &self.source, &self.config);
            if !ok {
                return None;
            }
            let field = |key| usize::try_from(stats_u64(&record, key)).ok();
            Some((field("depth")?, field("fusions")?))
        } else {
            let program = self.compiler.compile(&self.circuit);
            Some((program.depth, program.fusions))
        }
    }
}

/// `paper-suite`: the `sweep` bin's 36 configurations — {QFT, QAOA, RCA,
/// BV} × paper sizes × {square, ratio1.5, square ×2 extension} — on
/// constructed circuits with line3 resource states.
pub fn paper_suite(seed: u64) -> Vec<Input> {
    let mut inputs = Vec::new();
    for kind in BenchKind::ALL {
        for &n in kind.paper_sizes() {
            let circuit = kind.circuit(n, seed);
            let side = oneq_baseline::physical_side(n, ResourceKind::LINE3);
            let square = LayerGeometry::square(side);
            let ratio = LayerGeometry::from_area_and_ratio(side * side, 1.5);
            for (label, geometry, ext) in [
                ("square", square, 1),
                ("ratio1.5", ratio, 1),
                ("square", square, 2),
            ] {
                let name = format!("{}-{n}/{label}/x{ext}", kind.name());
                inputs.push(Input::constructed(name, circuit.clone(), geometry, ext));
            }
        }
    }
    inputs
}

/// `wide-sparse`: seeded BV and GHZ at 250/500/1000 qubits, rendered to
/// QASM and compiled through the record path with auto geometry.
pub fn wide_sparse(seed: u64) -> Vec<Input> {
    let mut inputs = Vec::new();
    for n in [250, 500, 1000] {
        inputs.push(Input::record(
            format!("BV-{n}.qasm"),
            BenchKind::Bv.circuit(n, seed),
        ));
        inputs.push(Input::record(
            format!("GHZ-{n}.qasm"),
            oneq_circuit::extra::ghz(n),
        ));
    }
    inputs
}

/// What a timed compile run produced.
pub struct Timed {
    /// `passes[p][i]`: input `i`'s compile time in pass `p`, ms.
    pub passes: Vec<Vec<f64>>,
    /// Reference-kernel times in run order, ms: one before the first
    /// compile and one after every compile, so compile `j` (counting
    /// through the passes) sits between entries `j` and `j + 1`.
    pub reference_ms: Vec<f64>,
    /// Each input's `(depth, fusions)` from its first pass.
    pub outputs: Vec<(usize, usize)>,
    /// Compiles run.
    pub attempted: u64,
    /// Compiles that failed or disagreed with the input's first pass.
    pub failed: u64,
}

/// Compiles every input in turn, once per pass, until `seconds` have
/// passed (at least two passes). Back-to-back repeats of one input would
/// sample a single machine phase; cycling through the inputs spreads each
/// input's samples over the run. The reference kernel runs between
/// compiles, so every compile is bracketed by two measures of machine
/// speed.
pub fn run_timed(inputs: &[Input], seconds: f64) -> Timed {
    let start = Instant::now();
    let mut timed = Timed {
        passes: Vec::new(),
        reference_ms: vec![reference::time_ms()],
        outputs: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut outputs: Vec<Option<(usize, usize)>> = Vec::new();
    while timed.passes.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let mut pass = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            let t = Instant::now();
            let out = std::hint::black_box(input.compile());
            pass.push(t.elapsed().as_secs_f64() * 1e3);
            timed.reference_ms.push(reference::time_ms());
            timed.attempted += 1;
            if timed.passes.is_empty() {
                outputs.push(out);
            }
            if out.is_none() || out != outputs[i] {
                timed.failed += 1;
            }
        }
        timed.passes.push(pass);
    }
    timed.outputs = outputs.into_iter().map(Option::unwrap_or_default).collect();
    timed
}

/// The end-to-end compile metrics of one timed run, in
/// reference-normalised milliseconds: each compile is scaled by the mean
/// of the two reference times around it, then each input keeps the first
/// quartile (nearest rank) of its passes.
pub fn report(timed: &Timed, metrics: &mut Metrics) {
    let width = timed.passes.first().map_or(0, Vec::len);
    let scaled: Vec<Vec<f64>> = timed
        .passes
        .iter()
        .enumerate()
        .map(|(p, pass)| {
            pass.iter()
                .enumerate()
                .map(|(i, c)| {
                    let j = p * width + i;
                    let around = (timed.reference_ms[j] + timed.reference_ms[j + 1]) / 2.0;
                    c * reference::NOMINAL_MS / around
                })
                .collect()
        })
        .collect();
    let quartile = stats::quartile_of_passes(&scaled);
    let raw = stats::best_of_passes(&timed.passes);
    let raw_quartile = stats::quartile_of_passes(&timed.passes);
    let slowest = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "{} passes; raw best-of-passes: compile_ms_geomean {:.4} slowest_ms {:.3}; \
         raw first quartile: compile_ms_geomean {:.4} slowest_ms {:.3}",
        timed.passes.len(),
        oneq_bench::geomean(&raw),
        slowest(&raw),
        oneq_bench::geomean(&raw_quartile),
        slowest(&raw_quartile),
    );
    metrics.push("compile_ms_geomean", oneq_bench::geomean(&quartile), "ms");
    metrics.push("slowest_ms", slowest(&quartile), "ms");
    let depth: usize = timed.outputs.iter().map(|o| o.0).sum();
    let fusions: usize = timed.outputs.iter().map(|o| o.1).sum();
    metrics.push("depth_total", depth as f64, "count");
    metrics.push("fusions_total", fusions as f64, "count");
}

/// Checks every input's outputs; returns one message per failed check.
///
/// On every seed, an independent direct compile of the same circuit must
/// reproduce the timed run's `(depth, fusions)`, and its fusion count
/// must equal direct + routed + shuffle fusions. At [`EXPECTED_SEED`]
/// the outputs must also equal the committed expected file.
pub fn check(
    workload: &str,
    seed: u64,
    inputs: &[Input],
    outputs: &[(usize, usize)],
) -> Vec<String> {
    let mut errors = Vec::new();
    for (input, &out) in inputs.iter().zip(outputs) {
        let circuit = if input.via_record {
            match oneq_frontend::parse_circuit(&input.source) {
                Ok(c) => c,
                Err(e) => {
                    errors.push(format!("{}: does not parse: {}", input.name, e.to_line()));
                    continue;
                }
            }
        } else {
            input.circuit.clone()
        };
        let p = input.compiler.compile(&circuit);
        let s = &p.stats;
        if p.fusions != s.direct_fusions + s.routed_fusions + s.shuffle_fusions {
            errors.push(format!(
                "{}: fusions {} != direct {} + routed {} + shuffle {}",
                input.name, p.fusions, s.direct_fusions, s.routed_fusions, s.shuffle_fusions
            ));
        }
        if (p.depth, p.fusions) != out {
            errors.push(format!(
                "{}: timed path gave depth/fusions {out:?}, direct compile {:?}",
                input.name,
                (p.depth, p.fusions)
            ));
        }
    }
    if seed == EXPECTED_SEED {
        for (input, &(depth, fusions)) in inputs.iter().zip(outputs) {
            let line = format!("{workload} {} {depth} {fusions}", input.name);
            if !EXPECTED.lines().any(|l| l == line) {
                errors.push(format!("not in expected/seed-{EXPECTED_SEED}.txt: {line}"));
            }
        }
    }
    errors
}

/// The options `Compiler::compile_pattern` hands to
/// `partition::partition`, rebuilt from the public compiler options so
/// the traced run can time partitioning as its own call.
fn partition_options(options: &CompilerOptions) -> PartitionOptions {
    let area = ExtendedLayer::new(options.geometry, options.extension_factor)
        .geometry()
        .area();
    let capacity = area.saturating_mul(options.fill_percent).saturating_mul(8) / 100;
    PartitionOptions {
        max_dependency_layers: options.max_dependency_layers,
        capacity_hint: Some(capacity.max(64)),
        enforce_planarity: options.enforce_planarity,
        resource_kind: options.resource_kind,
    }
}

/// Per-input fastest values of the traced compile lane, in ns.
#[derive(Clone, Copy)]
struct Best {
    untraced: f64,
    traced: f64,
    parse: f64,
    translate: f64,
    partition: f64,
    fusion_graph: f64,
    mapping: f64,
    shuffle: f64,
}

impl Best {
    fn new() -> Best {
        let inf = f64::INFINITY;
        Best {
            untraced: inf,
            traced: inf,
            parse: inf,
            translate: inf,
            partition: inf,
            fusion_graph: inf,
            mapping: inf,
            shuffle: inf,
        }
    }
}

/// Wall times of one traced compile, in ns.
struct TracedTimes {
    /// The calls the untraced path makes, spans included.
    e2e: f64,
    parse: f64,
    translate: f64,
}

/// One traced compile of `input`: spans around the benchmark's calls into
/// the frontend, the MBQC translation, `compile_pattern` and a standalone
/// `partition::partition`, plus stage spans inside `compile_pattern` laid
/// out in pipeline order from the program's own stage timings.
fn traced_compile(input: &Input, tracer: &mut Tracer) -> Option<(CompiledProgram, TracedTimes)> {
    let item = input.name.as_str();
    let root = tracer.open("bench.input", None, item);
    let parse = |t: &mut Tracer| {
        let (parsed, id) = t.span("frontend.parse_circuit", Some(root), item, || {
            oneq_frontend::parse_circuit(&input.source)
        });
        (parsed.ok(), t.duration(id))
    };
    let e2e_start = tracer.now();
    let (circuit, mut parse_ns) = if input.via_record {
        let (c, ns) = parse(tracer);
        (c?, ns)
    } else {
        (input.circuit.clone(), 0.0)
    };
    let (pattern, translate) = tracer.span("mbqc.from_circuit", Some(root), item, || {
        oneq_mbqc::translate::from_circuit(&circuit)
    });
    let (program, cp) = tracer.span("core.compile_pattern", Some(root), item, || {
        input.compiler.compile_pattern(&pattern)
    });
    let e2e = tracer.now().saturating_sub(e2e_start) as f64;
    let t = &program.timings;
    let mut at = tracer.start_of(cp);
    let mut stage = |tr: &mut Tracer, name, ns: u128| {
        let ns = ns as u64;
        tr.record(name, Some(cp), at, at + ns, item);
        at += ns;
    };
    stage(tracer, "core.partition", t.partition_ns);
    for p in &program.profile.partitions {
        stage(tracer, "core.fusion_graph", p.fusion_graph_ns);
        stage(tracer, "core.mapping", p.mapping_ns);
    }
    stage(tracer, "core.shuffle", t.shuffle_ns);
    let options = partition_options(input.compiler.options());
    tracer.span("core.partition_call", Some(root), item, || {
        partition::partition(&pattern, &options)
    });
    if !input.via_record {
        parse_ns = parse(tracer).1;
    }
    tracer.close(root);
    let translate = tracer.duration(translate);
    Some((
        program,
        TracedTimes {
            e2e,
            parse: parse_ns,
            translate,
        },
    ))
}

/// The traced compile lane: alternates untraced and traced passes over
/// `inputs` for `seconds` (at least two of each), then reports the
/// per-layer compile metrics. Stage times are each input's fastest pass
/// summed over inputs; counters are exact sums over inputs. Returns
/// `(compiles attempted, compiles failed)`.
pub fn run_traced(
    inputs: &[Input],
    seconds: f64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> (u64, u64) {
    let start = Instant::now();
    let mut best = vec![Best::new(); inputs.len()];
    let mut programs: Vec<Option<CompiledProgram>> = vec![None; inputs.len()];
    let mut failed = 0;
    let mut pass = 0;
    while pass < 4 || start.elapsed().as_secs_f64() < seconds {
        for (i, input) in inputs.iter().enumerate() {
            let b = &mut best[i];
            if pass % 2 == 0 {
                let t = Instant::now();
                if std::hint::black_box(input.compile()).is_none() {
                    failed += 1;
                }
                b.untraced = b.untraced.min(t.elapsed().as_nanos() as f64);
                continue;
            }
            let Some((program, times)) = traced_compile(input, tracer) else {
                failed += 1;
                continue;
            };
            let t = &program.timings;
            b.traced = b.traced.min(times.e2e);
            b.parse = b.parse.min(times.parse);
            b.translate = b.translate.min(times.translate);
            b.partition = b.partition.min(t.partition_ns as f64);
            b.fusion_graph = b.fusion_graph.min(t.fusion_graph_ns as f64);
            b.mapping = b.mapping.min(t.mapping_ns as f64);
            b.shuffle = b.shuffle.min(t.shuffle_ns as f64);
            programs[i] = Some(program);
        }
        pass += 1;
    }
    let traced_passes = (pass / 2) as f64;
    let sum_ms = |f: fn(&Best) -> f64| best.iter().map(f).sum::<f64>() / 1e6;
    let gm_ms = |f: fn(&Best) -> f64| {
        oneq_bench::geomean(&best.iter().map(|b| f(b) / 1e6).collect::<Vec<_>>())
    };
    metrics.push("frontend.parse_ms", sum_ms(|b| b.parse), "ms");
    metrics.push("mbqc.translate_ms", sum_ms(|b| b.translate), "ms");
    metrics.push("core.partition_ms", sum_ms(|b| b.partition), "ms");
    metrics.push("core.fusion_graph_ms", sum_ms(|b| b.fusion_graph), "ms");
    metrics.push("core.mapping_ms", sum_ms(|b| b.mapping), "ms");
    metrics.push("core.shuffle_ms", sum_ms(|b| b.shuffle), "ms");

    let programs: Vec<&CompiledProgram> = programs.iter().flatten().collect();
    let sum = |f: fn(&CompiledProgram) -> u64| programs.iter().map(|p| f(p)).sum::<u64>() as f64;
    metrics.push(
        "mbqc.graph_state_nodes",
        sum(|p| p.stats.graph_state_nodes as u64),
        "count",
    );
    metrics.push(
        "mbqc.graph_state_edges",
        sum(|p| p.stats.graph_state_edges as u64),
        "count",
    );
    metrics.push(
        "core.dependency_layers",
        sum(|p| p.stats.dependency_layers as u64),
        "count",
    );
    metrics.push(
        "core.partitions",
        sum(|p| p.stats.partitions as u64),
        "count",
    );
    metrics.push(
        "core.cross_edges",
        sum(|p| p.stats.cross_edges as u64),
        "count",
    );
    metrics.push(
        "core.fusion_graph_nodes",
        sum(|p| p.stats.fusion_graph_nodes as u64),
        "count",
    );
    metrics.push(
        "core.direct_fusions",
        sum(|p| p.stats.direct_fusions as u64),
        "count",
    );
    metrics.push(
        "core.routed_fusions",
        sum(|p| p.stats.routed_fusions as u64),
        "count",
    );
    metrics.push(
        "core.shuffle_fusions",
        sum(|p| p.stats.shuffle_fusions as u64),
        "count",
    );
    metrics.push(
        "hardware.bfs_searches",
        sum(|p| p.profile.totals().bfs_searches),
        "count",
    );
    metrics.push(
        "hardware.bfs_expansions",
        sum(|p| p.profile.totals().bfs_expansions),
        "count",
    );
    metrics.push(
        "hardware.seed_scans",
        sum(|p| p.profile.totals().seed_scans),
        "count",
    );
    metrics.push(
        "hardware.routing_cells",
        sum(|p| p.profile.totals().routing_cells),
        "count",
    );
    let reuses = sum(|p| p.profile.totals().scratch_reuses);
    let rearms = reuses + sum(|p| p.profile.totals().scratch_grows);
    metrics.push("hardware.scratch_rearms", rearms, "count");
    metrics.push(
        "hardware.scratch_reuse_ratio",
        if rearms > 0.0 { reuses / rearms } else { 0.0 },
        "ratio",
    );

    let untraced = gm_ms(|b| b.untraced);
    let traced = gm_ms(|b| b.traced);
    metrics.push("trace.untraced_ms_geomean", untraced, "ms");
    metrics.push("trace.traced_ms_geomean", traced, "ms");
    metrics.push("trace.overhead_ms", traced - untraced, "ms");
    let self_ns = tracer.self_times();
    let per_pass_ms =
        |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / traced_passes;
    for (metric, span) in [
        ("self.bench.input_ms", "bench.input"),
        ("self.frontend.parse_circuit_ms", "frontend.parse_circuit"),
        ("self.mbqc.from_circuit_ms", "mbqc.from_circuit"),
        ("self.core.compile_pattern_ms", "core.compile_pattern"),
        ("self.core.partition_call_ms", "core.partition_call"),
    ] {
        metrics.push(metric, per_pass_ms(span), "ms");
    }
    metrics.push(
        "trace.unattributed_ms",
        per_pass_ms("bench.input") + per_pass_ms("core.compile_pattern"),
        "ms",
    );
    ((pass * inputs.len()) as u64, failed)
}
