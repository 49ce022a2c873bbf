//! The drivers: one closed loop per workload shape. A client's next
//! round starts only after the broadcast of the previous one, so a slow
//! system is offered less load, never a growing queue.
//!
//! Each driver is generic over the tracer, times the end-to-end metrics
//! with plain `Instant` stamps at the leg boundaries (in both binaries),
//! and checks every round's output before counting its operations as
//! done.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{subseed, Shape, Workload};
use crate::sut::{self, Client, Crypto, Federation};
use crate::trace::{span, NoTrace, Tracer, ROUND};

/// How long and from which seed a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOpts {
    /// The `--seed` every input derives from.
    pub seed: u64,
    /// Seconds the timed region lasts (at least `min_rounds` rounds run
    /// however short this is).
    pub seconds: f64,
    /// Equal parts the run is cut into. Each part builds its own set-up
    /// (one `setup_s` sample, the median is reported) and then times its
    /// share of `seconds`, so set-ups and timed rounds alternate over the
    /// whole life of the process instead of sitting in two blocks: the
    /// speed of a shared machine drifts over tens of seconds, and samples
    /// spread over a longer window repeat better from run to run.
    pub segments: usize,
}

impl RunOpts {
    /// Seconds and fewest rounds of one segment's timed loop.
    fn per_segment(&self, w: &Workload) -> (f64, usize) {
        let n = self.segments.max(1);
        (self.seconds / n as f64, w.min_rounds.div_ceil(n))
    }
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Samples of each end-to-end metric (one sample for exact counts).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Samples of the per-layer metrics a driver can read off public
    /// reports (`net.*`).
    pub layer_samples: BTreeMap<&'static str, Vec<f64>>,
    /// Operations attempted: client-rounds, or uploads on fan-in.
    pub attempted: u64,
    /// Operations that failed a layer call or a correctness check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Timed rounds (ladder, fan-in) or federations × rounds (net).
    pub rounds: u64,
    /// Final test accuracy, where the workload trains a model.
    pub accuracy: Option<f64>,
    /// Largest |decrypted global − plaintext mean| seen in any round.
    pub max_err: f64,
    /// Inputs of the last round, for the `fhe` rows beneath the spans.
    pub probe: Option<Probe>,
}

/// The last round's inputs, kept for the per-ciphertext rows.
pub struct Probe {
    /// The workload's context and keys.
    pub crypto: Crypto,
    /// One client's local model of the last round.
    pub flat: Vec<f32>,
    /// Uploads averaged in the last round (the `mul_scalar` weight).
    pub contributors: usize,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe").field("params", &self.flat.len()).finish_non_exhaustive()
    }
}

impl Outcome {
    fn push(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    fn push_layer(&mut self, metric: &'static str, value: f64) {
        self.layer_samples.entry(metric).or_default().push(value);
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Largest coordinate-wise distance between two models.
fn max_abs_diff(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| f64::from((x - y).abs())).fold(0.0, f64::max)
}

/// Coordinate-wise mean of the local models, in `f64` like the
/// homomorphic average it is compared against.
fn plain_mean(models: &[Vec<f32>]) -> Vec<f32> {
    let n = models.len() as f64;
    (0..models[0].len())
        .map(|i| (models.iter().map(|m| f64::from(m[i])).sum::<f64>() / n) as f32)
        .collect()
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where `/proc`
/// is not available.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload and returns what it measured. A layer error ends
/// the timed loop early; it is counted, never propagated, so the caller
/// can still print every metric.
///
/// # Errors
///
/// Returns a message only when set-up itself fails.
pub fn run<T: Tracer>(w: &Workload, opts: &RunOpts, tracer: &mut T) -> Result<Outcome, String> {
    let mut out = match w.shape {
        Shape::Ladder { clients } => ladder(w, clients, opts, tracer)?,
        Shape::FanIn { uploads } => fan_in(w, uploads, opts, tracer)?,
        Shape::Net { clients, rounds } => net(w, clients, rounds, opts)?,
    };
    out.push("peak_rss_mb", peak_rss_mib());
    let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.push("ok_share", ok);
    if let (Some(floor), Some(acc)) = (w.min_accuracy, out.accuracy) {
        if acc < floor {
            out.fail(0, format!("final test accuracy {acc:.3} is below {floor}"));
        }
    }
    Ok(out)
}

/// The server's side of one round: every upload frame decoded, parsed
/// and folded as it "arrives", then the average serialized and framed as
/// the broadcast of `round`. `upload_round` is the round the frames were
/// built for.
fn server_path<T: Tracer>(
    cr: &Crypto,
    frames: &[Vec<u8>],
    upload_round: usize,
    round: usize,
    tracer: &mut T,
) -> Result<Vec<u8>, String> {
    let mut agg = sut::aggregator(upload_round)?;
    for frame in frames {
        let upload = span(tracer, "net.wire.decode_frame", || sut::decode_frame(frame))?;
        let view = span(tracer, "net.codec.parse_upload", || sut::parse_upload(cr, &upload.model))?;
        span(tracer, "core.streaming.fold_upload", || {
            sut::fold_upload(&mut agg, cr, upload.client_id, upload.round, &view)
        })?;
    }
    let summed = span(tracer, "core.streaming.finish", || sut::finish(agg, cr))?;
    let payload = span(tracer, "net.codec.encode_broadcast", || sut::encode_broadcast(cr, &summed));
    Ok(span(tracer, "net.wire.encode_frame_global", || sut::encode_frame_global(round, payload)))
}

// ---------------------------------------------------------------------
// Ladder: every layer of the round, once per client, in process.
// ---------------------------------------------------------------------

struct Ladder {
    fed: Federation,
    cr: Crypto,
    clients: Vec<Client>,
}

/// What one ladder round hands back for checking.
struct LadderRound {
    locals: Vec<Vec<f32>>,
    globals: Vec<Vec<f32>>,
    upload_bytes: Vec<usize>,
    download_bytes: usize,
}

fn ladder_round<T: Tracer>(
    st: &mut Ladder,
    global: &[f32],
    round: usize,
    tracer: &mut T,
    out: &mut Outcome,
) -> Result<LadderRound, String> {
    let Ladder { fed, cr, clients } = st;
    let p = clients.len();
    let mut frames = Vec::with_capacity(p);
    let mut locals = Vec::with_capacity(p);
    let mut up_ms = Vec::with_capacity(p);
    let mut enc_ms = Vec::with_capacity(p);

    tracer.set_round(round as u64);
    tracer.enter(ROUND);
    let round_start = Instant::now();

    for client in clients.iter_mut() {
        let t0 = Instant::now();
        let flat = span(tracer, "hdc.train", || sut::train(client, global, fed));
        let e0 = Instant::now();
        let cts = span(tracer, "core.packing.encrypt_model", || {
            sut::encrypt_model(cr, &flat, sut::client_stream(client))
        })?;
        let e1 = Instant::now();
        let payload = span(tracer, "net.codec.encode_upload", || sut::encode_upload(cr, &cts))?;
        let frame = span(tracer, "net.wire.encode_frame", || {
            sut::encode_frame(round, client.id(), client.last_steps(), payload)
        });
        let t1 = Instant::now();
        up_ms.push(ms(t0, t1));
        enc_ms.push(ms(e0, e1));
        frames.push(frame);
        locals.push(flat);
    }

    let server_start = Instant::now();
    let broadcast = server_path(cr, &frames, round, round, tracer)?;
    let server_end = Instant::now();

    let mut globals = Vec::with_capacity(p);
    for (i, client) in clients.iter_mut().enumerate() {
        let t0 = Instant::now();
        let model =
            span(tracer, "net.wire.decode_frame_global", || sut::decode_frame_global(&broadcast))?;
        let cts = span(tracer, "net.codec.decode_broadcast", || sut::decode_broadcast(cr, &model))?;
        let d0 = Instant::now();
        let decrypted =
            span(tracer, "core.packing.decrypt_model", || sut::decrypt_model(cr, &cts))?;
        let d1 = Instant::now();
        span(tracer, "hdc.load_global", || sut::load_global(client, &decrypted));
        let t1 = Instant::now();
        out.push("client_path_ms", up_ms[i] + ms(t0, t1));
        out.push("client_encdec_ms", enc_ms[i] + ms(d0, d1));
        globals.push(decrypted);
    }

    let round_end = Instant::now();
    tracer.exit();
    out.push("round_ms", ms(round_start, round_end));
    out.push("server_path_ms", ms(server_start, server_end));
    Ok(LadderRound {
        locals,
        globals,
        upload_bytes: frames.iter().map(Vec::len).collect(),
        download_bytes: broadcast.len(),
    })
}

fn ladder<T: Tracer>(
    w: &Workload,
    clients: usize,
    opts: &RunOpts,
    tracer: &mut T,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (seconds, min_rounds) = opts.per_segment(w);
    let p = clients as u64;
    for _ in 0..opts.segments.max(1) {
        let built = Instant::now();
        let fed =
            sut::federation(subseed(opts.seed, 0), subseed(opts.seed, 1), clients, w.threads)?;
        let cr =
            sut::crypto(w.params, w.codec, subseed(opts.seed, 1), fed.num_params(), w.threads)?;
        let mut st = Ladder { clients: fed.clients(), fed, cr };
        out.push("setup_s", built.elapsed().as_secs_f64());
        let want_up = sut::expected_upload_frame_bytes(&st.cr);
        let want_down = sut::expected_broadcast_frame_bytes(&st.cr);
        out.samples.insert("upload_bytes", vec![want_up as f64]);
        out.samples.insert("download_bytes", vec![want_down as f64]);

        // One untimed round from the public all-zero model: fills the NTT
        // table cache and scratch arenas, and takes the one-shot bundling
        // pass of round 0 out of the timed region.
        let mut global = vec![0.0f32; st.fed.num_params()];
        let mut last = ladder_round(&mut st, &global, 0, &mut NoTrace, &mut Outcome::default())?;
        global.clone_from(&last.globals[0]);

        let mut layer_error = false;
        let start = Instant::now();
        let mut round = 1usize;
        while round <= min_rounds || start.elapsed().as_secs_f64() < seconds {
            out.attempted += p;
            match ladder_round(&mut st, &global, round, tracer, &mut out) {
                Err(e) => {
                    out.fail(p, format!("round {round}: {e}"));
                    layer_error = true;
                    break;
                }
                Ok(r) => {
                    let err = max_abs_diff(&r.globals[0], &plain_mean(&r.locals));
                    out.max_err = out.max_err.max(err);
                    if err > w.tolerance {
                        out.fail(
                            p,
                            format!("round {round}: global off by {err:e} > {:e}", w.tolerance),
                        );
                    } else if r.globals.iter().any(|g| g != &r.globals[0]) {
                        out.fail(p, format!("round {round}: clients decrypted different globals"));
                    } else if r.upload_bytes.iter().any(|&b| b != want_up)
                        || r.download_bytes != want_down
                    {
                        out.fail(
                            p,
                            format!(
                                "round {round}: frames of {:?} / {} bytes, expected {want_up} / {want_down}",
                                r.upload_bytes, r.download_bytes
                            ),
                        );
                    }
                    global.clone_from(&r.globals[0]);
                    last = r;
                    out.rounds += 1;
                    round += 1;
                }
            }
        }
        out.accuracy = Some(st.fed.accuracy(&global));
        out.probe =
            Some(Probe { crypto: st.cr, flat: last.locals.swap_remove(0), contributors: clients });
        if layer_error {
            break;
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Fan-in: the server path alone over many distinct uploads.
// ---------------------------------------------------------------------

struct FanIn {
    cr: Crypto,
    frames: Vec<Vec<u8>>,
    mean: Vec<f32>,
    first_model: Vec<f32>,
}

/// Coordinates of the fan-in models are uniform in ±`FAN_IN_RANGE`, the
/// magnitude a trained class vector's coordinates reach on this data.
const FAN_IN_RANGE: f32 = 8.0;

fn fan_in_setup(w: &Workload, uploads: usize, seed: u64) -> Result<FanIn, String> {
    let cr = sut::crypto(w.params, w.codec, subseed(seed, 1), sut::NUM_PARAMS, w.threads)?;
    let mut values = StdRng::seed_from_u64(subseed(seed, 2));
    let mut frames = Vec::with_capacity(uploads);
    let mut models = Vec::with_capacity(uploads);
    for id in 0..uploads {
        let flat: Vec<f32> =
            (0..sut::NUM_PARAMS).map(|_| values.gen_range(-FAN_IN_RANGE..FAN_IN_RANGE)).collect();
        let cts = sut::encrypt_model(&cr, &flat, &mut sut::client_rng(subseed(seed, 1), id))?;
        frames.push(sut::encode_frame(0, id, 1, sut::encode_upload(&cr, &cts)?));
        models.push(flat);
    }
    let mean = plain_mean(&models);
    Ok(FanIn { cr, frames, mean, first_model: models.swap_remove(0) })
}

fn fan_in_round<T: Tracer>(
    st: &FanIn,
    round: usize,
    tracer: &mut T,
    out: &mut Outcome,
) -> Result<Vec<u8>, String> {
    tracer.set_round(round as u64);
    tracer.enter(ROUND);
    let start = Instant::now();
    // The frames were built once, for round 0; every timed round folds
    // them again and broadcasts under its own number.
    let broadcast = server_path(&st.cr, &st.frames, 0, round, tracer)?;
    let end = Instant::now();
    tracer.exit();
    out.push("round_ms", ms(start, end));
    out.push("server_path_ms", ms(start, end));
    Ok(broadcast)
}

/// What one client's leg around a fan-in round measured.
struct ClientLeg {
    global: Vec<f32>,
    upload_bytes: usize,
    path_ms: f64,
    encdec_ms: f64,
}

/// One client's whole leg, run untraced after each fan-in round, outside
/// its timed region: the down-leg is the round's correctness check, and
/// with the up-leg (the first upload built again) it is the only
/// client-side work the workload has to report `client_*` metrics from.
fn fan_in_client_leg(st: &FanIn, rng: &mut StdRng, broadcast: &[u8]) -> Result<ClientLeg, String> {
    let cr = &st.cr;
    let u0 = Instant::now();
    let cts = sut::encrypt_model(cr, &st.first_model, rng)?;
    let u1 = Instant::now();
    let frame = sut::encode_frame(0, 0, 1, sut::encode_upload(cr, &cts)?);
    let model = sut::decode_frame_global(broadcast)?;
    let cts = sut::decode_broadcast(cr, &model)?;
    let d0 = Instant::now();
    let global = sut::decrypt_model(cr, &cts)?;
    let d1 = Instant::now();
    Ok(ClientLeg {
        global,
        upload_bytes: frame.len(),
        path_ms: ms(u0, d1),
        encdec_ms: ms(u0, u1) + ms(d0, d1),
    })
}

fn fan_in<T: Tracer>(
    w: &Workload,
    uploads: usize,
    opts: &RunOpts,
    tracer: &mut T,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (seconds, min_rounds) = opts.per_segment(w);
    let n = uploads as u64;
    let mut leg_rng = StdRng::seed_from_u64(subseed(opts.seed, 3));
    for _ in 0..opts.segments.max(1) {
        let built = Instant::now();
        let mut st = fan_in_setup(w, uploads, opts.seed)?;
        out.push("setup_s", built.elapsed().as_secs_f64());
        let want_up = sut::expected_upload_frame_bytes(&st.cr);
        let want_down = sut::expected_broadcast_frame_bytes(&st.cr);
        out.samples.insert("upload_bytes", vec![want_up as f64]);
        out.samples.insert("download_bytes", vec![want_down as f64]);
        if let Some(bad) = st.frames.iter().find(|f| f.len() != want_up) {
            out.fail(0, format!("upload frame of {} bytes, expected {want_up}", bad.len()));
        }

        fan_in_round(&st, 0, &mut NoTrace, &mut Outcome::default())?;

        let mut layer_error = false;
        let start = Instant::now();
        let mut round = 1usize;
        while round <= min_rounds || start.elapsed().as_secs_f64() < seconds {
            out.attempted += n;
            let checked = fan_in_round(&st, round, tracer, &mut out)
                .and_then(|b| fan_in_client_leg(&st, &mut leg_rng, &b).map(|leg| (b.len(), leg)));
            match checked {
                Err(e) => {
                    out.fail(n, format!("round {round}: {e}"));
                    layer_error = true;
                    break;
                }
                Ok((bytes, leg)) => {
                    let err = max_abs_diff(&leg.global, &st.mean);
                    out.max_err = out.max_err.max(err);
                    if err > w.tolerance {
                        out.fail(
                            n,
                            format!("round {round}: global off by {err:e} > {:e}", w.tolerance),
                        );
                    } else if (leg.upload_bytes, bytes) != (want_up, want_down) {
                        out.fail(
                            n,
                            format!(
                                "round {round}: frames of {} / {bytes} bytes, expected {want_up} / {want_down}",
                                leg.upload_bytes
                            ),
                        );
                    }
                    out.push("client_path_ms", leg.path_ms);
                    out.push("client_encdec_ms", leg.encdec_ms);
                    out.rounds += 1;
                    round += 1;
                }
            }
        }
        let flat = std::mem::take(&mut st.first_model);
        out.probe = Some(Probe { crypto: st.cr, flat, contributors: uploads });
        if layer_error {
            break;
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Net: the real server and client round loops over loopback TCP.
// ---------------------------------------------------------------------

/// The per-layer metrics only [`net`] has samples for, read off the
/// public report structs; every other workload reports them as 0.
pub const NET_REPORT_METRICS: [&str; 11] = [
    "net.client.train_ms",
    "net.client.encrypt_ms",
    "net.client.upload_ms",
    "net.client.decrypt_ms",
    "net.wait_ms",
    "net.server.aggregate_ms",
    "net.server.bytes_rx",
    "net.server.bytes_tx",
    "net.retries",
    "net.rejected_updates",
    "net.dropped_clients",
];

/// What every federation of the net workload is held against.
struct NetExpect {
    rounds: usize,
    /// Client-rounds of one federation.
    ops: u64,
    /// Bytes the server must read and write over one federation.
    server_bytes: (u64, u64),
    /// The `Hello` frames, which are no upload.
    hello_bytes: f64,
}

/// Checks one finished federation and records its samples.
fn net_federation(out: &mut Outcome, run: &sut::NetRun, federation: usize, want: &NetExpect) {
    let NetExpect { rounds, ops, server_bytes: (want_rx, want_tx), hello_bytes } = *want;
    let s = &run.server;
    let retries: u64 = run.clients.iter().map(|c| c.retries).sum();
    let nacks: u64 = run.clients.iter().map(|c| c.rejected_updates).sum::<u64>() + s.rejected;
    let uploaded: u64 = run.clients.iter().map(|c| c.rounds).sum();
    if retries + nacks + s.dropped_clients > 0 || uploaded != ops {
        out.fail(
            ops,
            format!(
                "federation {federation}: {retries} retries, {nacks} rejected updates, {} \
                 dropped clients, {uploaded}/{ops} uploads",
                s.dropped_clients
            ),
        );
    } else if run.clients.iter().any(|c| c.final_model != run.clients[0].final_model) {
        out.fail(ops, format!("federation {federation}: final models differ between clients"));
    } else if (s.bytes_rx, s.bytes_tx) != (want_rx, want_tx) {
        out.fail(
            ops,
            format!(
                "federation {federation}: server moved {} / {} bytes, expected {want_rx} / {want_tx}",
                s.bytes_rx, s.bytes_tx
            ),
        );
    }
    let round_ms = run.wall.as_secs_f64() * 1e3 / rounds as f64;
    out.push("round_ms", round_ms);
    out.push("upload_bytes", (s.bytes_rx as f64 - hello_bytes) / ops as f64);
    out.push("download_bytes", s.bytes_tx as f64 / ops as f64);
    let aggregate = s.aggregate_ms.iter().sum::<f64>() / rounds as f64;
    out.push_layer("net.server.aggregate_ms", aggregate);
    out.push_layer("net.server.bytes_rx", s.bytes_rx as f64);
    out.push_layer("net.server.bytes_tx", s.bytes_tx as f64);
    out.push_layer("net.retries", retries as f64);
    out.push_layer("net.rejected_updates", nacks as f64);
    out.push_layer("net.dropped_clients", s.dropped_clients as f64);
    for c in &run.clients {
        let r = c.rounds.max(1) as f64;
        let (train, enc, up, dec) =
            (c.train_ms / r, c.encrypt_ms / r, c.upload_ms / r, c.decrypt_ms / r);
        out.push("client_path_ms", train + enc + dec);
        out.push("client_encdec_ms", enc + dec);
        // What is left of the round once the client's own compute is
        // taken out: both socket directions, the server's receive, fold,
        // finish and broadcast, and waiting for the peer. The server's
        // own `aggregate_time` covers `finish` alone under streaming
        // aggregation (a third of a millisecond), too short to gate.
        out.push("server_path_ms", round_ms - (train + enc + dec));
        out.push_layer("net.client.train_ms", train);
        out.push_layer("net.client.encrypt_ms", enc);
        out.push_layer("net.client.upload_ms", up);
        out.push_layer("net.client.decrypt_ms", dec);
        out.push_layer("net.wait_ms", round_ms - (train + enc + up + dec));
    }
    out.rounds += rounds as u64;
}

fn net(w: &Workload, clients: usize, rounds: usize, opts: &RunOpts) -> Result<Outcome, String> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores < clients {
        return Err(format!(
            "{} needs {clients} client threads but this machine has {cores} core(s); \
             the load generator never runs more threads than cores",
            w.name
        ));
    }
    let cr = sut::crypto(w.params, w.codec, subseed(opts.seed, 1), sut::NUM_PARAMS, w.threads)?;
    let want = NetExpect {
        rounds,
        ops: (clients * rounds) as u64,
        server_bytes: (
            sut::expected_server_rx(&cr, clients, rounds) as u64,
            sut::expected_server_tx(&cr, clients, rounds) as u64,
        ),
        hello_bytes: (clients * sut::frame_bytes(4)) as f64,
    };

    let mut out = Outcome::default();
    let (seconds, min_federations) = opts.per_segment(w);
    let mut federation = 0usize;
    let mut flat = Vec::new();
    'segments: for _ in 0..opts.segments.max(1) {
        let built = Instant::now();
        let fed =
            sut::federation(subseed(opts.seed, 0), subseed(opts.seed, 1), clients, w.threads)?;
        let mut next = Some(sut::loopback(&fed, w.params, w.codec, rounds)?);
        out.push("setup_s", built.elapsed().as_secs_f64());

        let start = Instant::now();
        let mut done = 0usize;
        while done < min_federations || start.elapsed().as_secs_f64() < seconds {
            done += 1;
            federation += 1;
            out.attempted += want.ops;
            let run = match next.take() {
                Some(lb) => Ok(lb),
                None => sut::loopback(&fed, w.params, w.codec, rounds),
            }
            .and_then(sut::run_loopback);
            match run {
                Ok(run) => {
                    net_federation(&mut out, &run, federation, &want);
                    // The uploads' plaintexts never leave the client
                    // threads, so the per-round mean check of the ladders
                    // has no counterpart here; the accuracy floor is what
                    // catches a wrong aggregate.
                    if let Some(c) = run.clients.first() {
                        out.accuracy = Some(fed.accuracy(&c.final_model));
                    }
                }
                Err(e) => {
                    out.fail(want.ops, format!("federation {federation}: {e}"));
                    break 'segments;
                }
            }
        }
        flat = sut::train(&mut fed.clients()[0], &vec![0.0; fed.num_params()], &fed);
    }
    out.probe = Some(Probe { crypto: cr, flat, contributors: clients });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_distance_are_coordinate_wise() {
        let models = vec![vec![1.0, 2.0], vec![3.0, 6.0]];
        assert_eq!(plain_mean(&models), [2.0, 4.0]);
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[1.5, 3.0]), 2.0);
    }

    #[test]
    fn a_run_is_cut_into_equal_segments_that_still_make_the_fewest_rounds() {
        let w = &crate::spec::WORKLOADS[0];
        let opts = RunOpts { seed: 1, seconds: 21.0, segments: 3 };
        assert_eq!(opts.per_segment(w), (7.0, w.min_rounds.div_ceil(3)));
        assert_eq!(RunOpts { segments: 1, ..opts }.per_segment(w), (21.0, w.min_rounds));
    }
}
