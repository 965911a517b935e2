//! Isolated probes: each times one public function of one layer in a
//! tight loop, with the workload's real message shapes (value size,
//! register-group width), at least 10 k iterations in 5 batches, and
//! reports the median batch. The cost table multiplies these by the
//! calls per operation the run counted.

use crate::workload::{OpKind, OpStream, Spec, ValueMaker, T};
use rastor_common::{ClientId, ClusterConfig, ObjectId, OpKind as Kind, Timestamp, TsVal};
use rastor_core::clients::OpOutput;
use rastor_core::msg::{Rep, Req, Stamped};
use rastor_core::mwmr::{mw_read_in_group_mode, MwWriteClient, RegGroup};
use rastor_core::object::HonestObject;
use rastor_core::ReadMode;
use rastor_kv::ShardRouter;
use rastor_net::wire::{self, Frame, ReqEnvelope, WireReqFrame};
use rastor_net::{NetCluster, ObjectServer};
use rastor_sim::runtime::{ThreadClient, ThreadCluster};
use rastor_sim::{
    ClientAction, Dispatch, ObjectBehavior, OpDriver, RoundClient, Sim, SimConfig, StalePolicy,
};
use rastor_store::wal::Wal;
use rastor_store::DurableObject;
use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;

/// Median over `BATCHES` batches of the mean ns per call of `f`.
fn per_call_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let batch_ns: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(b * iters + i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median_of(batch_ns)
}

fn median_of(v: Vec<f64>) -> f64 {
    crate::stats::median(&v).expect("a probe measures at least one batch")
}

/// Keys the object-level probes spread over (a shard's share of the
/// workload's keys).
fn shard_keys(spec: &Spec) -> u32 {
    spec.keys / crate::workload::SHARDS as u32
}

fn group(spec: &Spec, kid: u32) -> RegGroup {
    RegGroup::keyed(kid, spec.threads)
}

fn stamped(maker: &ValueMaker, key: u32, ts: u64) -> Stamped {
    Stamped::plain(TsVal::new(Timestamp(ts), maker.make(key, ts)))
}

/// An honest object holding one committed value per key of a shard.
fn loaded_object(spec: &Spec, maker: &ValueMaker) -> HonestObject {
    let mut obj = HonestObject::new();
    for kid in 0..shard_keys(spec) {
        obj.apply(&Req::Commit {
            reg: group(spec, kid).writer_reg(0),
            pair: stamped(maker, kid, 1),
        });
    }
    obj
}

pub struct KvProbes {
    pub shard_of_ns: f64,
}

pub fn kv(keys: &[String]) -> KvProbes {
    let router = ShardRouter::new(crate::workload::SHARDS);
    KvProbes {
        shard_of_ns: per_call_ns(20_000, |i| {
            black_box(router.shard_of(black_box(&keys[i % keys.len()])));
        }),
    }
}

pub struct CoreProbes {
    pub object_read_ns: f64,
    pub object_write_ns: f64,
    pub sim_get_ns: f64,
    pub sim_put_ns: f64,
    pub msgs_per_get: f64,
    pub msgs_per_put: f64,
}

/// Counts the messages an object receives and sends.
struct Counting {
    inner: HonestObject,
    msgs: Rc<Cell<u64>>,
}

impl ObjectBehavior<Req, Rep> for Counting {
    fn on_request(&mut self, from: ClientId, req: &Req) -> Option<Rep> {
        let rep = self.inner.on_request(from, req);
        self.msgs
            .set(self.msgs.get() + 1 + u64::from(rep.is_some()));
        rep
    }
}

/// One op at a time through the deterministic `Sim`: the automata's cost
/// with no threads, and the exact message count of a get and of a put.
fn sim_ops(spec: &Spec, maker: &ValueMaker, kind: OpKind, ops: usize) -> (f64, f64) {
    let cfg = ClusterConfig::byzantine(T).expect("t = 1 is a valid budget");
    let keys = 256u32.min(shard_keys(spec));
    let msgs = Rc::new(Cell::new(0u64));
    let mut per_op = Vec::new();
    for _ in 0..BATCHES {
        let mut sim: Sim<Req, Rep, OpOutput> = Sim::new(SimConfig {
            record_observations: false,
            ..SimConfig::default()
        });
        for _ in 0..cfg.num_objects() {
            sim.add_object(Box::new(Counting {
                inner: HonestObject::new(),
                msgs: Rc::clone(&msgs),
            }));
        }
        let client = ClientId::reader(0);
        let put = |sim: &mut Sim<Req, Rep, OpOutput>, kid: u32, stamp: u64| {
            let a = MwWriteClient::in_group(cfg, 0, group(spec, kid), maker.make(kid, stamp));
            sim.invoke_at(sim.now(), client, Kind::Write, Box::new(a));
            black_box(sim.run_to_quiescence());
        };
        for kid in 0..keys {
            put(&mut sim, kid, 0);
        }
        msgs.set(0);
        let t0 = Instant::now();
        for i in 0..ops {
            let kid = i as u32 % keys;
            match kind {
                OpKind::Put => put(&mut sim, kid, i as u64 + 1),
                OpKind::Get => {
                    let a = mw_read_in_group_mode(cfg, 0, group(spec, kid), ReadMode::Fast);
                    sim.invoke_at(sim.now(), client, Kind::Read, Box::new(a));
                    black_box(sim.run_to_quiescence());
                }
            }
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    (median_of(per_op), msgs.get() as f64 / ops as f64)
}

pub fn core(spec: &Spec, maker: &ValueMaker) -> CoreProbes {
    let keys = shard_keys(spec);
    let mut obj = loaded_object(spec, maker);
    let collects: Vec<Req> = (0..keys)
        .map(|kid| Req::Collect {
            regs: group(spec, kid).all_regs(),
        })
        .collect();
    let object_read_ns = per_call_ns(4_000, |i| {
        black_box(obj.on_request(
            ClientId::reader(0),
            black_box(&collects[i % collects.len()]),
        ));
    });
    // Alternate pre-write and commit of fresh pairs, as a put's rounds 3-4 do.
    let writes: Vec<Req> = (0..20_000u64)
        .map(|i| {
            let kid = (i / 2) as u32 % keys;
            let (reg, pair) = (
                group(spec, kid).writer_reg(0),
                stamped(maker, kid, 2 + i / 2),
            );
            if i.is_multiple_of(2) {
                Req::PreWrite { reg, pair }
            } else {
                Req::Commit { reg, pair }
            }
        })
        .collect();
    let object_write_ns = per_call_ns(4_000, |i| {
        black_box(obj.on_request(ClientId::reader(0), black_box(&writes[i])));
    });
    let (sim_get_ns, msgs_per_get) = sim_ops(spec, maker, OpKind::Get, 2_000);
    let (sim_put_ns, msgs_per_put) = sim_ops(spec, maker, OpKind::Put, 2_000);
    CoreProbes {
        object_read_ns,
        object_write_ns,
        sim_get_ns,
        sim_put_ns,
        msgs_per_get,
        msgs_per_put,
    }
}

/// A behaviour that does nothing: answers any request with an empty view.
struct NoOp;

impl ObjectBehavior<Req, Rep> for NoOp {
    fn on_request(&mut self, _from: ClientId, _req: &Req) -> Option<Rep> {
        Some(Rep::Views { views: Vec::new() })
    }
}

/// A one-round automaton that completes on a quorum of replies.
struct EchoRound {
    heard: usize,
    quorum: usize,
}

impl RoundClient<Req, Rep> for EchoRound {
    type Out = ();
    fn start(&mut self) -> Req {
        Req::Collect { regs: Vec::new() }
    }
    fn on_reply(&mut self, _from: ObjectId, _round: u32, _reply: &Rep) -> ClientAction<Req, ()> {
        self.heard += 1;
        if self.heard >= self.quorum {
            ClientAction::Complete(())
        } else {
            ClientAction::Wait
        }
    }
}

fn noops() -> Vec<Box<dyn ObjectBehavior<Req, Rep> + Send>> {
    (0..3 * T + 1).map(|_| Box::new(NoOp) as _).collect()
}

/// Depth-1 round trips of `EchoRound` over `transport`, µs per trip.
fn echo_rtt_us<C: rastor_sim::Transport<Req, Rep>>(transport: &C) -> f64 {
    let mut client: ThreadClient<Req, Rep, ()> = ThreadClient::new(ClientId::reader(0));
    let mut trip = || {
        let a = EchoRound {
            heard: 0,
            quorum: 2 * T + 1,
        };
        client
            .run_op(transport, Box::new(a), Duration::from_secs(10))
            .expect("no-op objects always answer");
    };
    for _ in 0..500 {
        trip();
    }
    per_call_ns(2_000, |_| trip()) / 1e3
}

pub struct SimProbes {
    pub echo_rtt_us: f64,
    pub driver_reply_ns: f64,
}

/// Drive the workload's op mix through an `OpDriver` against live honest
/// objects, timing only the `on_reply` calls (every reply of every round
/// is fed, as the thread runtime does — the stale ones cost a lookup).
fn driver_reply_ns(spec: &Spec, maker: &ValueMaker, seed: u64) -> f64 {
    let cfg = ClusterConfig::byzantine(T).expect("t = 1 is a valid budget");
    let keys = shard_keys(spec);
    let mut objects: Vec<HonestObject> = (0..cfg.num_objects())
        .map(|_| loaded_object(spec, maker))
        .collect();
    let mut stream = OpStream::new(spec, seed, 0);
    let mut driver: OpDriver<Req, Rep, OpOutput> = OpDriver::new(StalePolicy::DropLate);
    let mut batch_ns = Vec::new();
    for _ in 0..BATCHES {
        let (mut spent, mut replies) = (Duration::ZERO, 0u64);
        for _ in 0..1_000 {
            let op = stream.next_in(keys);
            let g = group(spec, op.key);
            let mut bc = match op.kind {
                OpKind::Put => driver.submit(
                    Kind::Write,
                    Box::new(MwWriteClient::in_group(
                        cfg,
                        0,
                        g,
                        maker.make(op.key, op.stamp),
                    )),
                    0,
                    None,
                ),
                OpKind::Get => driver.submit(
                    Kind::Read,
                    Box::new(mw_read_in_group_mode(cfg, 0, g, ReadMode::Fast)),
                    0,
                    None,
                ),
            };
            loop {
                let reps: Vec<Rep> = objects.iter_mut().map(|o| o.apply(&bc.payload)).collect();
                let mut next = None;
                let mut done = false;
                let t0 = Instant::now();
                for (i, rep) in reps.iter().enumerate() {
                    match driver.on_reply(bc.nonce, ObjectId(i as u32), bc.round, rep) {
                        Dispatch::NextRound(b) => next = Some(b),
                        Dispatch::Complete(c) => {
                            black_box(c);
                            done = true;
                        }
                        Dispatch::Wait | Dispatch::StaleRound | Dispatch::Unknown => {}
                    }
                }
                spent += t0.elapsed();
                replies += reps.len() as u64;
                match next {
                    Some(b) if !done => bc = b,
                    _ => break,
                }
            }
        }
        batch_ns.push(spent.as_nanos() as f64 / replies as f64);
    }
    median_of(batch_ns)
}

pub fn sim(spec: &Spec, maker: &ValueMaker, seed: u64) -> SimProbes {
    let cluster: ThreadCluster<Req, Rep> = ThreadCluster::spawn(noops(), None);
    SimProbes {
        echo_rtt_us: echo_rtt_us(&cluster),
        driver_reply_ns: driver_reply_ns(spec, maker, seed),
    }
}

pub struct NetProbes {
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub bytes_per_frame: f64,
    pub echo_rtt_us: f64,
}

/// Frames per probe envelope: the saturation depth.
const ENVELOPE_FRAMES: usize = crate::workload::SAT_DEPTH;

pub fn net(spec: &Spec, maker: &ValueMaker) -> Result<NetProbes, String> {
    let envelope = Frame::Req(ReqEnvelope {
        from: ClientId::reader(0),
        frames: (0..ENVELOPE_FRAMES as u32)
            .map(|k| WireReqFrame {
                op_nonce: u64::from(k),
                round: 3,
                trace: 0,
                req: Req::PreWrite {
                    reg: group(spec, k).writer_reg(0),
                    pair: stamped(maker, k, 7),
                },
            })
            .collect(),
    });
    let bytes = wire::encode_frame(&envelope);
    let encode = per_call_ns(2_000, |_| {
        black_box(wire::encode_frame(black_box(&envelope)));
    });
    let decode = per_call_ns(2_000, |_| {
        black_box(wire::decode_frame(black_box(&bytes)).expect("our own frame decodes"));
    });
    let server = ObjectServer::spawn(noops(), 0, None).map_err(|e| format!("echo server: {e}"))?;
    let cluster =
        NetCluster::connect(&[server.local_addr()]).map_err(|e| format!("echo client: {e}"))?;
    Ok(NetProbes {
        encode_ns_per_frame: encode / ENVELOPE_FRAMES as f64,
        decode_ns_per_frame: decode / ENVELOPE_FRAMES as f64,
        bytes_per_frame: bytes.len() as f64 / ENVELOPE_FRAMES as f64,
        echo_rtt_us: echo_rtt_us(&cluster),
    })
}

pub struct StoreProbes {
    pub append_ns: f64,
    pub bytes_per_record: f64,
    pub durable_write_ns: f64,
    pub snapshot_write_ms: f64,
    pub replay_recs_per_s: f64,
    pub fsync_us: f64,
}

const REPLAY_RECORDS: usize = 100_000;

/// `versions` is how many values per key the run's objects had adopted by
/// the end of the saturation phase: a snapshot writes every one of them,
/// so the snapshot probe builds the same state first.
pub fn store(
    spec: &Spec,
    maker: &ValueMaker,
    dir: &Path,
    versions: u64,
) -> Result<StoreProbes, String> {
    let err = |what: &str, e: rastor_common::Error| format!("store probe, {what}: {e}");
    let keys = shard_keys(spec);
    let write = |i: u64| {
        let kid = (i / 2) as u32 % keys;
        let (reg, pair) = (
            group(spec, kid).writer_reg(0),
            stamped(maker, kid, 1 + i / 2 / u64::from(keys)),
        );
        if i.is_multiple_of(2) {
            Req::PreWrite { reg, pair }
        } else {
            Req::Commit { reg, pair }
        }
    };

    // The mutation path with compaction out of the way.
    let plain = dir.join("probe-durable");
    let (mut obj, _) =
        DurableObject::open(&plain, ObjectId(0), u64::MAX).map_err(|e| err("open", e))?;
    let reqs: Vec<Req> = (0..10_000).map(write).collect();
    let durable_write_ns = per_call_ns(2_000, |i| {
        black_box(obj.on_request(ClientId::reader(0), &reqs[i]));
    });
    drop(obj);
    let wal_len = std::fs::metadata(plain.join("obj-0.wal")).map_or(0, |m| m.len());
    let bytes_per_record = wal_len.saturating_sub(4) as f64 / 10_000.0;

    // The log alone, with records of that size.
    let payload = vec![0xa5u8; (bytes_per_record as usize).saturating_sub(8).max(1)];
    let (mut wal, _, _) =
        Wal::open(dir.join("probe-append.wal")).map_err(|e| err("open wal", e))?;
    let append_ns = per_call_ns(4_000, |_| {
        wal.append(black_box(&payload))
            .expect("append to the probe wal");
    });
    let mut syncs = Vec::new();
    for _ in 0..24 {
        wal.append(&payload).map_err(|e| err("append", e))?;
        let t0 = Instant::now();
        wal.sync_data().map_err(|e| err("fsync", e))?;
        syncs.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(wal);

    // Replay: a 100 k-record log, reopened cold.
    let replay = dir.join("probe-replay.wal");
    let (mut wal, _, _) = Wal::open(&replay).map_err(|e| err("open replay wal", e))?;
    for _ in 0..REPLAY_RECORDS {
        wal.append(&payload)
            .map_err(|e| err("fill replay wal", e))?;
    }
    drop(wal);
    let t0 = Instant::now();
    let (wal, records, _) = Wal::open(&replay).map_err(|e| err("replay", e))?;
    let replay_recs_per_s = records.len() as f64 / t0.elapsed().as_secs_f64();
    drop((wal, records));
    let _ = std::fs::remove_file(&replay);

    // Snapshots: an object with the crate's default cadence and the run's
    // state size; the slowest call of each 1024-mutation cycle is the one
    // that compacted.
    let snap_dir = dir.join("probe-snapshot");
    let (mut obj, _) =
        DurableObject::open(&snap_dir, ObjectId(0), rastor_store::DEFAULT_SNAPSHOT_EVERY)
            .map_err(|e| err("open", e))?;
    let fill = 2 * u64::from(keys) * versions.max(1);
    // Land the fill on a cycle boundary so each timed cycle holds one snapshot.
    let fill = fill.next_multiple_of(rastor_store::DEFAULT_SNAPSHOT_EVERY);
    for i in 0..fill {
        obj.on_request(ClientId::reader(0), &write(i));
    }
    let mut snapshot_ms = Vec::new();
    for cycle in 0..3 {
        let mut slowest = Duration::ZERO;
        for i in 0..rastor_store::DEFAULT_SNAPSHOT_EVERY {
            let req = write(fill + cycle * rastor_store::DEFAULT_SNAPSHOT_EVERY + i);
            let t0 = Instant::now();
            black_box(obj.on_request(ClientId::reader(0), &req));
            slowest = slowest.max(t0.elapsed());
        }
        snapshot_ms.push(slowest.as_secs_f64() * 1e3);
    }
    drop(obj);
    let _ = std::fs::remove_dir_all(&snap_dir);
    let _ = std::fs::remove_dir_all(&plain);

    Ok(StoreProbes {
        append_ns,
        bytes_per_record,
        durable_write_ns,
        snapshot_write_ms: median_of(snapshot_ms),
        replay_recs_per_s,
        fsync_us: median_of(syncs),
    })
}

pub struct ObsProbes {
    pub counter_inc_ns: f64,
    pub histogram_record_ns: f64,
}

pub fn obs() -> ObsProbes {
    let reg = rastor_obs::Registry::new();
    let counter = reg.counter("probe.counter");
    let histogram = reg.histogram("probe.histogram");
    ObsProbes {
        counter_inc_ns: per_call_ns(200_000, |_| black_box(&counter).inc()),
        histogram_record_ns: per_call_ns(200_000, |i| black_box(&histogram).record(i as u64)),
    }
}
