//! The two offline workloads: no server, a batched engine stepping
//! waves of ragged episodes through `step_batch_masked_into` on a
//! 1-thread pool. A latency sample is the wall time of one grid step.

use crate::affinity::Pin;
use crate::inputs::{pick_two, waves, waves_digest, Digest, Rng, Wave};
use crate::layers::{self, Shapes};
use crate::probe::Compute;
use crate::report::{peak_rss_mib, Outcome, RunOpts};
use crate::spans::{SpanBuf, NO_PARENT};
use crate::stats::{
    lower_quartile, median, percentile_ns, phase_stats, quiet, scale_of, Stop, Timeline, WINDOWS,
};
use hima::dnc::{BoxedEngine, Datapath, DncParams, EngineSpec};
use hima::tasks::tasks::TOKEN_WIDTH;
use hima::tensor::{Backend, Matrix, QFormat};
use rayon::ThreadPoolBuilder;
use std::time::{Duration, Instant};

/// Per-element bound of the blocked tier against the scalar reference,
/// `|a − b| ≤ TOL · (1 + max(|a|, |b|))` — `backend_conformance`'s.
pub const BLOCKED_TOL: f32 = 1e-3;

/// Waves in the pool a run cycles through.
const POOL_WAVES: usize = 32;

pub struct OfflineWorkload {
    pub shapes: Shapes,
    /// Grid steps of the fixed warm-up that ends every set-up.
    warmup_grid_steps: usize,
    /// Episodes per chosen lane the correctness gate replays solo.
    verify_waves: usize,
    /// Windows the measured phase is cut into.
    windows: usize,
}

pub fn workload(name: &str) -> Option<OfflineWorkload> {
    match name {
        "offline_small_f32" => Some(OfflineWorkload {
            shapes: Shapes {
                params: DncParams::new(128, 16, 2)
                    .with_hidden(64)
                    .with_io(TOKEN_WIDTH, TOKEN_WIDTH),
                spec: EngineSpec::monolithic().with_backend(Backend::Blocked),
                lanes: 32,
            },
            warmup_grid_steps: 100,
            verify_waves: 48,
            windows: WINDOWS,
        }),
        // HiMA's own regime. Four lanes, not eight: a grid step is then
        // about 7 ms on the reference box, which yields the 1 000
        // latency samples a p99 needs inside one run — in twenty
        // windows, so that each holds a hundred of them.
        "offline_paper_q16" => Some(OfflineWorkload {
            shapes: Shapes {
                params: DncParams::new(1024, 64, 4)
                    .with_hidden(256)
                    .with_io(TOKEN_WIDTH, TOKEN_WIDTH),
                spec: EngineSpec::sharded(16).with_datapath(Datapath::Quantized(QFormat::q16_16())),
                lanes: 4,
            },
            warmup_grid_steps: 20,
            verify_waves: 6,
            windows: 20,
        }),
        _ => None,
    }
}

/// An engine with its output block.
struct Stepper {
    engine: BoxedEngine,
    y: Matrix,
}

/// What one timed pass over the wave pool saw.
struct Pass {
    /// Wall time of every grid step; a grid step completes one step per
    /// active lane, so `grid.steps` is what the masks added up to.
    grid: Timeline,
    waves_run: usize,
    wall: Duration,
    /// Output rows of the two chosen lanes, episode after episode.
    recorded: [Vec<f32>; 2],
}

impl Pass {
    fn active(&self) -> u64 {
        self.grid.steps
    }

    fn rate(&self) -> f64 {
        self.active() as f64 / self.wall.as_secs_f64()
    }
}

/// What a pass may be asked to keep besides its timings.
#[derive(Default)]
struct Observe<'a> {
    /// Record the output rows of these two lanes (the gate's).
    chosen: Option<[usize; 2]>,
    /// Record a span per wave and per grid step under this parent.
    spans: Option<(&'a mut SpanBuf, u32)>,
    /// Fold every active lane's output row into this digest.
    digest: Option<&'a mut Digest>,
}

impl OfflineWorkload {
    /// Builds the engine and runs the fixed warm-up. Returns the digest
    /// of the warm-up's outputs (fixed work, so it repeats for a seed)
    /// and the warm-up's median host slowdown.
    fn set_up(&self, pool: &[Wave], opts: &RunOpts) -> (Stepper, Digest, f64) {
        let engine = self.shapes.builder().lanes(self.shapes.lanes).build();
        let y = Matrix::zeros(self.shapes.lanes, self.shapes.params.output_size);
        let mut stepper = Stepper { engine, y };
        let mut digest = Digest::default();
        let warm = Stop::Samples(opts.warm(self.warmup_grid_steps));
        let keep = Observe { digest: Some(&mut digest), ..Observe::default() };
        let warmed = self.pass(&mut stepper, pool, warm, 1, keep);
        let slowdown = phase_stats(std::slice::from_ref(&warmed.grid), warmed.wall).slowdown;
        (stepper, digest, slowdown)
    }

    /// Steps whole waves (reset, then every grid step of the wave) until
    /// `stop`; with `Stop::After` the wave in flight at the deadline is
    /// finished, so work always ends on a wave boundary.
    fn pass(
        &self,
        stepper: &mut Stepper,
        pool: &[Wave],
        stop: Stop,
        threads: usize,
        keep: Observe,
    ) -> Pass {
        let Observe { chosen, mut spans, mut digest } = keep;
        let rayon_pool =
            ThreadPoolBuilder::new().num_threads(threads).build().expect("pool builds");
        let start = Instant::now();
        let mut pass = Pass {
            grid: Timeline::until(start, stop, self.windows, 1 << 14),
            waves_run: 0,
            wall: Duration::ZERO,
            recorded: Default::default(),
        };
        rayon_pool.install(|| {
            'waves: loop {
                let wave = &pool[pass.waves_run % pool.len()];
                let wave_span = spans.as_mut().map(|(buf, parent)| {
                    buf.begin("offline.wave", *parent, (pass.waves_run as u32, 0))
                });
                stepper.engine.reset();
                for (t, (x, mask)) in wave.grid.iter().enumerate() {
                    // A warm-up ends on its step count, mid-wave if need be.
                    if matches!(stop, Stop::Samples(_)) && pass.grid.done(stop, start, start) {
                        break 'waves;
                    }
                    let t0 = Instant::now();
                    stepper.engine.step_batch_masked_into(x, mask, &mut stepper.y);
                    let t1 = Instant::now();
                    pass.grid.push(t1, t1.duration_since(t0), mask.active_count() as u32);
                    pass.grid.calibrate(&mut Compute);
                    if let (Some((buf, _)), Some(parent)) = (spans.as_mut(), wave_span) {
                        buf.record(
                            "dnc.grid_step",
                            t0,
                            t1,
                            parent,
                            (pass.waves_run as u32, t as u32),
                        );
                    }
                    if let Some(d) = digest.as_deref_mut() {
                        for lane in mask.active_lanes() {
                            d.row(stepper.y.row(lane));
                        }
                    }
                    if let Some(lanes) = chosen {
                        for (rec, lane) in pass.recorded.iter_mut().zip(lanes) {
                            if mask.is_active(lane) {
                                rec.extend_from_slice(stepper.y.row(lane));
                            }
                        }
                    }
                }
                if let (Some((buf, _)), Some(id)) = (spans.as_mut(), wave_span) {
                    buf.end(id);
                }
                pass.waves_run += 1;
                if pass.grid.done(stop, start, Instant::now()) {
                    break;
                }
            }
            pass.wall = start.elapsed();
        });
        pass
    }

    /// Active lane-steps the generated schedule holds for the first
    /// `waves_run` waves of a pass — what the masks must have added up to.
    fn scheduled_active(&self, pool: &[Wave], waves_run: usize) -> u64 {
        (0..waves_run).map(|w| pool[w % pool.len()].active_lane_steps() as u64).sum()
    }

    /// The correctness gate: replays seeded-chosen episodes of the two
    /// chosen lanes through a solo single-lane scalar engine. Returns
    /// `(steps checked, steps wrong)`. Bit-identical on the scalar tier;
    /// within [`BLOCKED_TOL`] of the scalar reference on the blocked one.
    fn verify(&self, pool: &[Wave], pass: &Pass, lanes: [usize; 2], seed: u64) -> (u64, u64) {
        let width = self.shapes.params.output_size;
        let exact = self.shapes.spec.backend == Backend::Scalar;
        let mut solo = self.shapes.builder().backend(Backend::Scalar).lanes(1).build();
        let mut rng = Rng::new(seed ^ 0x0FF1CE);
        let (mut checked, mut wrong) = (0u64, 0u64);
        for (rec, lane) in pass.recorded.iter().zip(lanes) {
            // Offset of each executed wave's episode in the lane's record.
            let mut offsets = Vec::with_capacity(pass.waves_run + 1);
            let mut at = 0usize;
            for w in 0..pass.waves_run {
                offsets.push(at);
                at += pool[w % pool.len()].episodes[lane].len() * width;
            }
            for _ in 0..self.verify_waves.min(pass.waves_run) {
                let w = rng.below(pass.waves_run);
                let episode = &pool[w % pool.len()].episodes[lane];
                solo.reset();
                for (t, x) in episode.inputs.iter().enumerate() {
                    let want = solo.step(x);
                    let got = &rec[offsets[w] + t * width..offsets[w] + (t + 1) * width];
                    checked += 1;
                    wrong += !rows_agree(got, &want, exact) as u64;
                }
            }
        }
        (checked, wrong)
    }

    /// The end-to-end run: set-ups, the measured phase, the gate.
    pub fn run(&self, opts: &RunOpts) -> Outcome {
        let mut out = Outcome::default();
        let pool = waves(opts.seed, self.shapes.lanes, POOL_WAVES);
        let chosen = pick_two(opts.seed, self.shapes.lanes);

        // The first set-up serves the measured phase; the others follow
        // it, so the peak resident set is that of one engine's life.
        let t = Instant::now();
        let (mut stepper, warm_digest, slowdown) = self.set_up(&pool, opts);
        let mut setups = vec![t.elapsed().as_secs_f64() * scale_of(slowdown)];

        let measured = Stop::After(Duration::from_secs_f64(opts.seconds));
        let keep = Observe { chosen: Some(chosen), ..Observe::default() };
        let pass = self.pass(&mut stepper, &pool, measured, 1, keep);
        let rss = peak_rss_mib();
        drop(stepper);

        let (checked, wrong) = self.verify(&pool, &pass, chosen, opts.seed);
        out.attempted = pass.active();
        out.failed = wrong;
        let scheduled = self.scheduled_active(&pool, pass.waves_run);
        out.require(pass.active() == scheduled, || {
            format!(
                "masks added up to {} active lane-steps, the schedule holds {scheduled}",
                pass.active()
            )
        });
        for _ in 1..opts.setups() {
            let t = Instant::now();
            let (again, _, slowdown) = self.set_up(&pool, opts);
            setups.push(t.elapsed().as_secs_f64() * scale_of(slowdown));
            drop(again);
        }

        let stats = phase_stats(std::slice::from_ref(&pass.grid), pass.wall);
        out.metric("steps_per_s", stats.steps_per_s);
        out.metric("step_p50_us", stats.p50_ns / 1e3);
        out.metric("setup_s", median(&setups));
        out.metric("peak_rss_mb", rss);
        out.info.push(("schedule_digest", format!("{:016x}", waves_digest(&pool).0)));
        out.info.push(("warmup_outputs_digest", format!("{:016x}", warm_digest.0)));
        out.wall_clock(&stats);
        out.info.push(("waves", pass.waves_run.to_string()));
        out.info.push(("steps_verified", checked.to_string()));
        out
    }

    /// The traced run: the measured pass with spans on, with the engine's
    /// own profile on, and on a 2-thread pool — each interleaved with the
    /// plain pass — and the layers timed in isolation.
    pub fn trace(&self, opts: &RunOpts, spans: &mut SpanBuf) -> Outcome {
        let mut out = Outcome::default();
        let pool = waves(opts.seed, self.shapes.lanes, POOL_WAVES);
        let (mut stepper, ..) = self.set_up(&pool, opts);
        let slice = Duration::from_secs_f64(opts.seconds * 0.8 / (4 * layers::ROUNDS) as f64);
        let micro = Duration::from_secs_f64((opts.seconds * 0.01).min(0.2));

        let phase = spans.begin("offline.traced_slices", NO_PARENT, (0, 0));
        let passes = layers::rotate(4, |variant| {
            let traced = (variant == 1).then_some((&mut *spans, phase));
            stepper.engine.set_profiling(variant == 2);
            let keep = Observe { spans: traced, ..Observe::default() };
            if variant == 3 {
                // The one pass that is about a second core runs unpinned.
                Pin::lifted(opts.pin, || {
                    self.pass(&mut stepper, &pool, Stop::After(slice), 2, keep)
                })
            } else {
                self.pass(&mut stepper, &pool, Stop::After(slice), 1, keep)
            }
        });
        spans.end(phase);
        stepper.engine.set_profiling(false);
        let profile = stepper.engine.profile();
        let rates: Vec<Vec<f64>> =
            passes.iter().map(|v| v.iter().map(Pass::rate).collect()).collect();
        let plain = &passes[0];

        out.attempted = passes.iter().flatten().map(Pass::active).sum();
        let active: u64 = plain.iter().map(Pass::active).sum();
        let scheduled: u64 = plain.iter().map(|p| self.scheduled_active(&pool, p.waves_run)).sum();
        out.require(active == scheduled, || {
            format!("dnc.occupancy: masks gave {active} active lane-steps, the schedule holds {scheduled}")
        });

        layers::tensor(&mut out, &self.shapes, micro);
        layers::unit_step(&mut out, &self.shapes, micro);
        let grid_steps: usize = plain.iter().map(|p| p.grid.latency_ns.len()).sum();
        out.metric("dnc.occupancy", active as f64 / (grid_steps * self.shapes.lanes) as f64);
        // The end-to-end rule with a slice standing in for a window.
        let tails: Vec<f64> = plain
            .iter()
            .map(|p| phase_stats(std::slice::from_ref(&p.grid), p.wall).p99_ns / 1e3)
            .collect();
        out.metric("step_p99_us", lower_quartile(&tails));
        // Raw times over the quarter of the plain slices with the
        // highest rate.
        let kept = quiet(plain.iter().collect(), |p: &&Pass| p.rate());
        let over_quiet =
            |f: &dyn Fn(&Pass) -> f64| median(&kept.iter().map(|p| f(p)).collect::<Vec<_>>());
        let grid_ns = |p: &Pass| p.grid.latency_ns.iter().map(|&n| n as u64).collect::<Vec<_>>();
        out.metric(
            "dnc.lane_step_ns",
            over_quiet(&|p| grid_ns(p).iter().sum::<u64>() as f64 / p.active() as f64),
        );
        out.metric("dnc.grid_step_ns", over_quiet(&|p| percentile_ns(&mut grid_ns(p), 0.5)));
        layers::shares(&mut out, layers::DNC_SHARES, &profile.category_shares());
        out.metric("dnc.profile_overhead_pct", layers::overhead_pct(&rates[0], &rates[2]));
        out.metric("dnc.par_speedup_2t", layers::rate_ratio(&rates[0], &rates[3]));
        layers::engine_state(&mut out, &self.shapes, micro);
        layers::model_shares(&mut out, &self.shapes);
        out.metric("trace.overhead_pct", layers::overhead_pct(&rates[0], &rates[1]));
        out.info.push(("schedule_digest", format!("{:016x}", waves_digest(&pool).0)));
        out
    }
}

/// Whether a produced row agrees with the reference row: bit for bit,
/// or within the blocked tier's tolerance.
pub fn rows_agree(got: &[f32], want: &[f32], exact: bool) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(a, b)| {
            if exact {
                a.to_bits() == b.to_bits()
            } else {
                (a - b).abs() <= BLOCKED_TOL * (1.0 + a.abs().max(b.abs()))
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_agree_is_exact_or_tolerant() {
        assert!(rows_agree(&[1.0, -2.0], &[1.0, -2.0], true));
        assert!(!rows_agree(&[1.0], &[1.0 + f32::EPSILON], true));
        assert!(rows_agree(&[1.0], &[1.0005], false));
        assert!(!rows_agree(&[1.0], &[1.01], false));
        assert!(!rows_agree(&[1.0], &[1.0, 2.0], false));
        assert!(!rows_agree(&[f32::NAN], &[f32::NAN], false), "NaN never passes the tolerance");
    }

    #[test]
    fn a_short_run_passes_its_own_gate() {
        let w = workload("offline_small_f32").unwrap();
        let out = w.run(&RunOpts { seed: 5, seconds: 0.05, smoke: true, pin: None });
        assert!(out.correct(), "{:?}", out.violations);
        assert!(out.attempted > 0);
        assert_eq!(out.metrics.len(), crate::catalog::END_TO_END.len());
    }

    #[test]
    fn the_gate_catches_a_corrupted_output() {
        let w = workload("offline_small_f32").unwrap();
        let pool = waves(5, w.shapes.lanes, 2);
        let opts = RunOpts { seed: 5, seconds: 0.01, smoke: true, pin: None };
        let (mut stepper, ..) = w.set_up(&pool, &opts);
        let lanes = pick_two(5, w.shapes.lanes);
        let keep = Observe { chosen: Some(lanes), ..Observe::default() };
        let mut pass = w.pass(&mut stepper, &pool, Stop::After(Duration::from_millis(5)), 1, keep);
        assert_eq!(w.verify(&pool, &pass, lanes, 5).1, 0);
        for v in pass.recorded[0].iter_mut() {
            *v += 0.5;
        }
        assert!(w.verify(&pool, &pass, lanes, 5).1 > 0);
    }
}
