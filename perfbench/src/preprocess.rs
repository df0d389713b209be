//! `preprocess-fanin`: the real preprocessing data plane, 2 producer
//! endpoints consumed by one fan-in `MultiFeeder`, batches of 4 samples
//! of 32² images. Codec work is tiny, so the plane's event loops,
//! framing, sockets and the consumer set the pace. One op is one
//! delivered sample; set-up is plane spawn through connect and the first
//! batch.

use crate::measure::{ms, process_cpu, threads_cpu, Measured, Phase, Sampler};
use crate::{Budget, Outcome, Params, Steady};
use dt_data::{DataConfig, ResolutionMode, SyntheticLaion, TrainSample};
use dt_preprocess::codec::{decompress, patchify, preprocess_sample, resize, synth_compressed};
use dt_preprocess::frame::{read_frame, write_batch_frames};
use dt_preprocess::wire::{BatchHeader, WireJson};
use dt_preprocess::{Consumer, MultiFeeder, Preprocess, PreprocessHandle};
use dt_telemetry::{names, Telemetry};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Time between host-speed probes, each on the next CPU in turn.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// One data-plane shape.
struct Shape {
    data: DataConfig,
    producers: usize,
    batch: u32,
    /// Samples timed through the codec probe.
    codec_samples: usize,
    /// Batches written and read by the in-memory frame probe.
    frame_rounds: usize,
}

fn fanin() -> Shape {
    Shape {
        data: DataConfig {
            resolution: ResolutionMode::Fixed(32),
            ..DataConfig::evaluation(32)
        },
        producers: 2,
        batch: 4,
        codec_samples: 256,
        frame_rounds: 2000,
    }
}

pub fn run_fanin(p: &Params, tail_pct: f64) -> Outcome {
    run(&fanin(), p, tail_pct)
}

/// A running plane with its connected consumer.
struct Plane {
    handle: PreprocessHandle,
    feeder: MultiFeeder,
    telemetry: Telemetry,
}

fn spawn(shape: &Shape, seed: u64, telemetry: Telemetry) -> Plane {
    let handle = Preprocess::builder(shape.data.clone(), seed)
        .producers(shape.producers)
        .workers(2)
        .queue_capacity(4)
        .telemetry(telemetry.clone())
        .spawn()
        .expect("spawn the preprocessing plane");
    let feeder = Consumer::builder(handle.addrs())
        .batch(shape.batch)
        .pipeline(2)
        .connect()
        .expect("connect the fan-in consumer");
    Plane {
        handle,
        feeder,
        telemetry,
    }
}

/// Output checks over the delivered stream.
struct Checker {
    seed: u64,
    next_id: HashMap<SocketAddr, u64>,
    /// Seeded subset kept for the byte-equality check against the codec:
    /// each sample with a hash of its delivered token bytes.
    kept: Vec<(TrainSample, u64)>,
    kept_bytes: usize,
    failed: u64,
}

/// Token bytes re-derived through the codec after a run, at most (the
/// first sample is always checked).
const KEEP_BYTES: usize = 40 << 20;

impl Checker {
    fn new(seed: u64) -> Checker {
        Checker {
            seed,
            next_id: HashMap::new(),
            kept: Vec::new(),
            kept_bytes: 0,
            failed: 0,
        }
    }

    /// Check one delivered batch; returns the samples it carried.
    fn batch(
        &mut self,
        addr: SocketAddr,
        b: &dt_preprocess::feeder::PreprocessedBatch,
        expected: u32,
    ) -> u64 {
        let samples = &b.batch.samples;
        let mut ok = samples.len() == expected as usize && samples.len() == b.token_lens.len();
        ok &= b.token_lens.iter().sum::<u64>() == b.tokens.len() as u64;
        let next = self.next_id.entry(addr).or_insert(0);
        let mut offset = 0usize;
        for (s, &len) in samples.iter().zip(&b.token_lens) {
            // Per-producer ids count up from 0 in delivery order.
            ok &= s.id == *next;
            *next += 1;
            let want: u64 = s
                .image_resolutions
                .iter()
                .map(|&r| 3 * u64::from(r) * u64::from(r))
                .sum();
            ok &= len == want;
            let end = offset + len as usize;
            let pick = self.kept.is_empty() || mix(self.seed ^ s.id).is_multiple_of(16);
            if ok && pick && (self.kept.is_empty() || self.kept_bytes + len as usize <= KEEP_BYTES)
            {
                if let Some(bytes) = b.tokens.get(offset..end) {
                    self.kept_bytes += bytes.len();
                    self.kept.push((s.clone(), digest(bytes)));
                }
            }
            offset = end;
        }
        self.failed += u64::from(!ok);
        samples.len() as u64
    }

    /// Recompute the kept samples through the codec; returns the number
    /// that differ.
    fn finish(&mut self) -> u64 {
        let differ = self
            .kept
            .iter()
            .filter(|(s, d)| digest(&preprocess_sample(s).token_bytes) != *d)
            .count();
        differ as u64
    }
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// splitmix64 finaliser: a seeded, id-keyed subset choice.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Steady-phase record of one plane.
struct Drive {
    samples: u64,
    /// (end, consumer stall ms) of every fetch.
    fetches_ms: Vec<(Instant, f64)>,
    phase: Measured,
}

fn drive(plane: &Plane, shape: &Shape, seconds: Duration, check: &mut Checker) -> Drive {
    let mut fetches_ms = Vec::new();
    let mut samples = 0u64;
    let phase = Phase::start();
    let deadline = Instant::now() + seconds;
    loop {
        match plane.feeder.next_batch_from() {
            Ok((addr, b, report)) => {
                fetches_ms.push((Instant::now(), ms(report.stall)));
                samples += check.batch(addr, &b, shape.batch);
            }
            Err(e) => {
                eprintln!("preprocess: fetch failed: {e}");
                check.failed += 1;
                break;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    Drive {
        samples,
        fetches_ms,
        phase: phase.stop(),
    }
}

/// Stop a plane; counts a malformed frame or an unclean shutdown as a
/// failure. Returns the plane's counters and the consumer's reconnects.
fn stop(plane: Plane, check: &mut Checker) -> (dt_preprocess::PlaneStatsSnapshot, u64) {
    let Plane {
        mut handle, feeder, ..
    } = plane;
    let stats = handle.stats();
    let reconnects = feeder.reconnects();
    drop(feeder);
    let clean = handle.shutdown();
    if stats.malformed_frames > 0 || !clean {
        eprintln!(
            "preprocess: malformed frames {}, clean shutdown {clean}",
            stats.malformed_frames
        );
        check.failed += 1;
    }
    (stats, reconnects)
}

/// Take and check a fresh plane's first batch.
fn first_batch(plane: &Plane, shape: &Shape, check: &mut Checker) {
    match plane.feeder.next_batch_from() {
        Ok((addr, b, _)) => {
            check.batch(addr, &b, shape.batch);
        }
        Err(e) => {
            eprintln!("preprocess: first batch failed: {e}");
            check.failed += 1;
        }
    }
}

/// Spawn, connect and take the first batch `setups` times (median
/// reported); the last plane stays up for the steady phase.
fn set_up(
    shape: &Shape,
    p: &Params,
    telemetry: &Telemetry,
    check: &mut Checker,
) -> (Plane, Vec<(Instant, f64)>) {
    let mut setups_s = Vec::new();
    let mut plane: Option<Plane> = None;
    for _ in 0..p.setups {
        if let Some(old) = plane.take() {
            stop(old, check);
            check.next_id.clear();
        }
        let t = Instant::now();
        let fresh = spawn(shape, p.seed, telemetry.clone());
        first_batch(&fresh, shape, check);
        setups_s.push((Instant::now(), t.elapsed().as_secs_f64()));
        plane = Some(fresh);
    }
    (plane.expect("at least one set-up"), setups_s)
}

fn run(shape: &Shape, p: &Params, tail_pct: f64) -> Outcome {
    let mut check = Checker::new(p.seed);
    if !p.trace {
        let sampler = Sampler::start(PROBE_EVERY);
        let (plane, setups_s) = set_up(shape, p, &Telemetry::disabled(), &mut check);
        let d = drive(&plane, shape, p.seconds, &mut check);
        let speed = sampler.finish();
        stop(plane, &mut check);
        let differ = check.finish();
        check.failed += differ;
        let attempted = d.samples + p.setups as u64;
        let steady = Steady {
            setups_s,
            ops: d.samples,
            phase: d.phase,
            latencies_ms: d.fetches_ms,
            speed,
            // The plane's waits, not the cores' speed, set its pace.
            cpu_bound: false,
        };
        return Outcome {
            attempted,
            failed: check.failed,
            metrics: steady.metrics(tail_pct),
            budgets: Vec::new(),
        };
    }

    // Traced: half the time on an untraced plane, half on a plane whose
    // telemetry records its fetch/decode/feed histograms.
    let half = p.seconds / 2;
    let quiet = spawn(shape, p.seed, Telemetry::disabled());
    first_batch(&quiet, shape, &mut check);
    let untraced = drive(&quiet, shape, half, &mut check);
    stop(quiet, &mut check);
    check.next_id.clear();

    let plane = spawn(shape, p.seed, Telemetry::enabled());
    first_batch(&plane, shape, &mut check);
    let hist =
        |tel: &Telemetry, name: &str| tel.with(|r| r.histogram(name, &[]).sum()).unwrap_or(0.0);
    let layer_names = [
        names::PREPROCESS_FETCH_SECONDS,
        names::PREPROCESS_DECODE_SECONDS,
        names::PREPROCESS_FEED_SECONDS,
    ];
    let before: Vec<f64> = layer_names
        .iter()
        .map(|n| hist(&plane.telemetry, n))
        .collect();
    let traced = drive(&plane, shape, half, &mut check);
    let layer_ms: Vec<f64> = layer_names
        .iter()
        .zip(&before)
        .map(|(n, b)| (hist(&plane.telemetry, n) - b) * 1e3 / traced.samples.max(1) as f64)
        .collect();
    let (stats, reconnects) = stop(plane, &mut check);
    let differ = check.finish();
    check.failed += differ;

    let per_sample = |d: &Drive| d.phase.wall_s * 1e3 / d.samples.max(1) as f64;
    let lane_ms = shape.producers as f64 * per_sample(&traced);
    let (codec_decompress, codec_resize, codec_patchify) = codec_probe(shape, p.seed);
    let (write_us, read_us) = frame_probe(shape, p.seed);
    let metrics = vec![
        ("preprocess.lane_ms", lane_ms),
        ("preprocess.fetch_ms", layer_ms[0]),
        ("preprocess.decode_ms", layer_ms[1]),
        ("preprocess.feed_ms", layer_ms[2]),
        (
            "preprocess.unattributed_ms",
            lane_ms - layer_ms.iter().sum::<f64>(),
        ),
        ("codec.decompress_ms", codec_decompress),
        ("codec.resize_ms", codec_resize),
        ("codec.patchify_ms", codec_patchify),
        ("frame.batch_write_us", write_us),
        ("frame.batch_read_us", read_us),
        (
            "preprocess.cpu_util",
            traced.phase.cpu_s / traced.phase.wall_s,
        ),
        (
            "preprocess.idle_cpu_ms_per_s",
            idle_probe(shape, p.seed, &mut check),
        ),
        (
            "preprocess.backpressure_events",
            stats.backpressure_events as f64,
        ),
        (
            "preprocess.sessions_accepted",
            stats.sessions_accepted as f64,
        ),
        ("preprocess.reconnects", reconnects as f64),
        ("preprocess.malformed_frames", stats.malformed_frames as f64),
        (
            "trace.overhead_pct",
            100.0 * (per_sample(&traced) - per_sample(&untraced)) / per_sample(&untraced),
        ),
    ];
    let budgets = vec![Budget {
        what: "one delivered sample, in producer-lane time (endpoints x wall / samples)",
        total: "preprocess.lane_ms",
        parts: vec![
            "preprocess.fetch_ms",
            "preprocess.decode_ms",
            "preprocess.feed_ms",
            "preprocess.unattributed_ms",
        ],
    }];
    let attempted = untraced.samples + traced.samples + 2;
    Outcome {
        attempted,
        failed: check.failed,
        metrics,
        budgets,
    }
}

/// Per-sample time of the three codec stages on the workload's own seeded
/// samples, in ms (one thread, as one decode worker runs them).
fn codec_probe(shape: &Shape, seed: u64) -> (f64, f64, f64) {
    let samples = SyntheticLaion::new(shape.data.clone(), seed).take(shape.codec_samples);
    let (mut dec, mut res, mut pat) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for s in &samples {
        for (i, &r) in s.image_resolutions.iter().enumerate() {
            // The same per-image seed `preprocess_sample` uses.
            let compressed = synth_compressed(r, s.id.wrapping_mul(1315423911) ^ i as u64);
            let t0 = Instant::now();
            let raw = decompress(&compressed);
            let t1 = Instant::now();
            let resized = resize(&raw, compressed.raw_res, r);
            let t2 = Instant::now();
            std::hint::black_box(patchify(&resized, r, s.patch));
            pat += t2.elapsed();
            res += t2 - t1;
            dec += t1 - t0;
        }
    }
    let n = samples.len() as f64;
    (ms(dec) / n, ms(res) / n, ms(pat) / n)
}

/// In-memory `write_batch_frames` and `read_frame` (header + payload) of
/// one batch at the workload's batch size, in µs per batch.
fn frame_probe(shape: &Shape, seed: u64) -> (f64, f64) {
    let samples = SyntheticLaion::new(shape.data.clone(), seed).take(shape.batch as usize);
    let chunks: Vec<Vec<u8>> = samples
        .iter()
        .map(|s| preprocess_sample(s).token_bytes)
        .collect();
    let header = BatchHeader {
        token_lens: chunks.iter().map(|c| c.len() as u64).collect(),
        samples,
        producer_cpu_ns: 0,
    };
    let header_json = header.to_json().to_string().into_bytes();
    let parts: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
    let total: usize = parts.iter().map(|c| c.len()).sum();
    let mut wire = Vec::with_capacity(header_json.len() + total + 8);
    let (mut write, mut read) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..shape.frame_rounds {
        wire.clear();
        let t0 = Instant::now();
        write_batch_frames(&mut wire, &header_json, &parts).expect("in-memory batch write");
        let t1 = Instant::now();
        let mut r = wire.as_slice();
        let head = read_frame(&mut r).expect("header frame");
        let body = read_frame(&mut r).expect("payload frame");
        read += t1.elapsed();
        write += t1 - t0;
        assert_eq!(
            (head.len(), body.len()),
            (header_json.len(), total),
            "frames round-trip"
        );
    }
    let n = shape.frame_rounds as f64;
    (write.as_secs_f64() * 1e6 / n, read.as_secs_f64() * 1e6 / n)
}

/// CPU burned per wall second by a plane whose consumer is connected
/// but not fetching (after its prefetch has settled): the idle cost of
/// the plane's polling, in ms/s.
fn idle_probe(shape: &Shape, seed: u64, check: &mut Checker) -> f64 {
    let plane = spawn(shape, seed, Telemetry::disabled());
    // Let the consumer's prefetch and the producers' queues fill, so the
    // producers go idle.
    let settle = Instant::now();
    std::thread::sleep(Duration::from_millis(300));
    while process_busy() && settle.elapsed() < Duration::from_secs(8) {}
    let wall = Instant::now();
    let cpu = threads_cpu();
    std::thread::sleep(Duration::from_secs(1));
    let burned = threads_cpu().saturating_sub(cpu);
    let per_s = ms(burned) / wall.elapsed().as_secs_f64();
    stop(plane, check);
    per_s
}

/// Whether this process used more than half a core over the last 100 ms.
fn process_busy() -> bool {
    let (t, c) = (Instant::now(), process_cpu());
    std::thread::sleep(Duration::from_millis(100));
    (process_cpu() - c).as_secs_f64() > 0.5 * t.elapsed().as_secs_f64()
}
