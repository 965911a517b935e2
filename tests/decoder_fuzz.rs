//! Seeded decoder fuzz over the byte formats other processes own: a
//! Byzantine peer writes the requests, replies and envelopes a server or
//! client decodes, and a corrupt disk writes the snapshot entries an
//! object recovers from.
//!
//! Valid encodings of each — object views with their one-byte pair
//! references included — are mutated by every single-bit flip, every
//! truncation, every byte swept through `0..=255` (so every reference
//! byte, and every tag), and a count of "the bytes remaining" written at
//! every offset (so every sequence count and length prefix). Every
//! mutant must decode or be refused with `Error::Codec` — never a panic —
//! and no decode may make an allocation larger than a fixed multiple of
//! its input, which is what a count believed before it was checked would
//! break. The default run is small; the `#[ignore]`d one
//! (`cargo test --release --test decoder_fuzz -- --include-ignored`)
//! adds a thousand random seeds and random multi-byte mutations.

use rastor::common::bytes::Dec;
use rastor::common::{ClientId, Error, ObjectId, RegId, SplitMix64, Timestamp, TsVal, Value};
use rastor::core::codec;
use rastor::core::msg::{AckKind, ObjectView, Rep, Req, Stamped};
use rastor::core::token::Token;
use rastor::net::wire::{self, Frame, RepEnvelope, ReqEnvelope, WireRepFrame, WireReqFrame};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------------
// The largest allocation a decode asks for
// ---------------------------------------------------------------------------

thread_local! {
    /// The largest single allocation this thread has asked for since the
    /// last reset. Const-initialized and drop-free, so the allocator can
    /// touch it without allocating.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each request's size in [`LARGEST`].
struct Noting;

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping neither allocates nor touches
// the memory.
unsafe impl GlobalAlloc for Noting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Noting = Noting;

// ---------------------------------------------------------------------------
// Formats under test
// ---------------------------------------------------------------------------

/// A format's decoder, reduced to whether it accepts the bytes.
type Decoder = Box<dyn Fn(&[u8]) -> Result<(), Error>>;

/// One valid encoding and the decoder that owns its format.
struct Seed {
    what: String,
    bytes: Vec<u8>,
    decode: Decoder,
}

fn req_seed(req: &Req) -> Seed {
    let mut bytes = Vec::new();
    codec::encode_req(req, &mut bytes);
    Seed {
        what: format!("request {req:?}"),
        bytes,
        decode: Box::new(|b| codec::decode_req(b).map(drop)),
    }
}

fn rep_seed(rep: &Rep) -> Seed {
    let mut bytes = Vec::new();
    codec::encode_rep(rep, &mut bytes);
    Seed {
        what: format!("reply {rep:?}"),
        bytes,
        decode: Box::new(|b| {
            let mut d = Dec::new(b);
            codec::read_rep(&mut d)?;
            d.done()
        }),
    }
}

fn entry_seed(reg: RegId, view: &ObjectView) -> Seed {
    let mut bytes = Vec::new();
    codec::encode_reg_view(reg, view, &mut bytes);
    Seed {
        what: format!("snapshot entry {view:?}"),
        bytes,
        decode: Box::new(|b| codec::decode_reg_view(b).map(drop)),
    }
}

/// An envelope's body; its decoder frames each mutant with the original
/// header, the length patched, so every mutation lands in the body
/// decoder rather than the framing check.
fn envelope_seed(frame: &Frame) -> Seed {
    let encoded = wire::encode_frame(frame);
    let header: [u8; wire::HEADER_LEN] = encoded[..wire::HEADER_LEN].try_into().expect("header");
    Seed {
        what: format!("envelope {frame:?}"),
        bytes: encoded[wire::HEADER_LEN..].to_vec(),
        decode: Box::new(move |body| {
            let mut framed = header.to_vec();
            let len = u32::try_from(body.len()).expect("small body");
            framed[4..8].copy_from_slice(&len.to_le_bytes());
            framed.extend_from_slice(body);
            wire::decode_frame(&framed).map(drop)
        }),
    }
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Pairs from a small pool — so views repeat them, and carry one
/// timestamp with other values and tokens — or fresh ones.
fn arb_stamped(rng: &mut SplitMix64) -> Stamped {
    let pool = [
        Stamped::bottom(),
        Stamped::plain(TsVal::new(Timestamp(1), Value::from_u64(10))),
        Stamped::plain(TsVal::new(Timestamp(2), Value::from_u64(20))),
        Stamped::plain(TsVal::new(Timestamp(2), Value::from_u64(21))),
        Stamped {
            pair: TsVal::new(Timestamp(2), Value::from_u64(20)),
            token: Some(Token::from_bits(7)),
        },
    ];
    if rng.next_f64() < 0.7 {
        return pool[rng.gen_range(0, pool.len() as u64 - 1) as usize].clone();
    }
    let len = rng.gen_range(0, 12) as usize;
    Stamped {
        pair: TsVal::new(
            Timestamp(rng.next_u64()),
            Value::from_bytes((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<_>>()),
        ),
        token: (rng.next_f64() < 0.3).then(|| Token::from_bits(rng.next_u64())),
    }
}

fn arb_reg(rng: &mut SplitMix64) -> RegId {
    let i = rng.gen_range(0, 9) as u32;
    if rng.next_f64() < 0.5 {
        RegId::Writer(i)
    } else {
        RegId::ReaderReg(i)
    }
}

fn arb_view(rng: &mut SplitMix64) -> ObjectView {
    ObjectView {
        pw: arb_stamped(rng),
        w: arb_stamped(rng),
        hist: (0..rng.gen_range(0, 5)).map(|_| arb_stamped(rng)).collect(),
    }
}

fn arb_req(rng: &mut SplitMix64) -> Req {
    let reg = arb_reg(rng);
    let pair = arb_stamped(rng);
    match rng.gen_range(0, 3) {
        0 => Req::Collect {
            regs: (0..rng.gen_range(0, 4)).map(|_| arb_reg(rng)).collect(),
        },
        1 => Req::Store { reg, pair },
        2 => Req::PreWrite { reg, pair },
        _ => Req::Commit { reg, pair },
    }
}

fn arb_rep(rng: &mut SplitMix64) -> Rep {
    if rng.next_f64() < 0.7 {
        Rep::Views {
            views: (0..rng.gen_range(0, 3))
                .map(|_| (arb_reg(rng), arb_view(rng)))
                .collect(),
        }
    } else {
        Rep::Ack {
            reg: arb_reg(rng),
            kind: [AckKind::Store, AckKind::PreWrite, AckKind::Commit]
                [rng.gen_range(0, 2) as usize],
        }
    }
}

/// One seed of every format, drawn from `rng`.
fn arb_seeds(rng: &mut SplitMix64) -> Vec<Seed> {
    let client = ClientId::reader(rng.gen_range(0, 3) as u32);
    let req_env = Frame::Req(ReqEnvelope {
        from: client,
        frames: (0..rng.gen_range(1, 3))
            .map(|n| WireReqFrame {
                op_nonce: n,
                round: 1,
                trace: 0,
                req: arb_req(rng),
            })
            .collect(),
    });
    let rep_env = Frame::Rep(RepEnvelope {
        to: client,
        from: ObjectId(rng.gen_range(0, 3) as u32),
        frames: (0..rng.gen_range(1, 3))
            .map(|n| WireRepFrame {
                op_nonce: n,
                round: 2,
                trace: 9,
                rep: arb_rep(rng),
            })
            .collect(),
    });
    vec![
        req_seed(&arb_req(rng)),
        rep_seed(&arb_rep(rng)),
        entry_seed(arb_reg(rng), &arb_view(rng)),
        envelope_seed(&req_env),
        envelope_seed(&rep_env),
    ]
}

/// The shapes the codec must get right, written out: a quiet view (`pw`,
/// `w` and the newest entry one pair), a pair listed twice, one timestamp
/// with two values, `pw` older than the history.
fn fixed_seeds() -> Vec<Seed> {
    let pair = |ts: u64, v: u64| Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(v)));
    let views = [
        ObjectView {
            pw: pair(2, 20),
            w: pair(2, 20),
            hist: vec![pair(1, 10), pair(2, 20)],
        },
        ObjectView {
            pw: pair(2, 20),
            w: pair(1, 10),
            hist: vec![pair(2, 20), pair(2, 20), pair(2, 21)],
        },
        ObjectView {
            pw: pair(1, 10),
            w: Stamped::bottom(),
            hist: vec![Stamped::bottom(), pair(3, 30)],
        },
    ];
    let mut seeds: Vec<Seed> = views.iter().map(|v| entry_seed(RegId::WRITER, v)).collect();
    seeds.push(rep_seed(&Rep::Views {
        views: views
            .iter()
            .map(|v| (RegId::ReaderReg(1), v.clone()))
            .collect(),
    }));
    seeds.push(req_seed(&Req::Collect {
        regs: vec![RegId::WRITER, RegId::ReaderReg(0), RegId::ReaderReg(1)],
    }));
    seeds.push(envelope_seed(&Frame::Rep(RepEnvelope {
        to: ClientId::writer(),
        from: ObjectId(3),
        frames: vec![WireRepFrame {
            op_nonce: 5,
            round: 1,
            trace: 0,
            rep: Rep::Views {
                views: vec![(RegId::WRITER, views[0].clone())],
            },
        }],
    })));
    seeds
}

// ---------------------------------------------------------------------------
// Mutation and judgement
// ---------------------------------------------------------------------------

/// Decode `input` as `seed`'s format: it must decode or be a codec error,
/// without panicking or allocating beyond a fixed multiple of its size.
/// Returns whether it decoded.
fn judge(seed: &Seed, input: &[u8], mutation: &str) -> bool {
    // The largest element a count sizes is an object-view pair, and a
    // history count admits one per remaining byte (a reference).
    let ceiling = std::mem::size_of::<Stamped>() * input.len() + 1024;
    LARGEST.set(0);
    let outcome = catch_unwind(AssertUnwindSafe(|| (seed.decode)(input)));
    let largest = LARGEST.get();
    let decoded = match outcome {
        Ok(Ok(())) => true,
        Ok(Err(Error::Codec { .. })) => false,
        Ok(Err(other)) => panic!("{} / {mutation}: not a codec error: {other:?}", seed.what),
        Err(_) => panic!("{} / {mutation}: the decoder panicked", seed.what),
    };
    assert!(
        largest <= ceiling,
        "{} / {mutation}: a {largest}-byte allocation for {} input bytes",
        seed.what,
        input.len()
    );
    decoded
}

/// Every single-bit flip, truncation, byte value and remaining-bytes
/// count of `seed`.
fn exhaust(seed: &Seed) {
    assert!(
        judge(seed, &seed.bytes, "unmutated"),
        "{} does not decode",
        seed.what
    );
    let mut input = seed.bytes.clone();
    for at in 0..input.len() {
        let original = input[at];
        for bit in 0..8 {
            input[at] = original ^ (1 << bit);
            judge(seed, &input, &format!("bit {bit} of byte {at} flipped"));
        }
        for value in 0..=u8::MAX {
            input[at] = value;
            judge(seed, &input, &format!("byte {at} set to {value}"));
        }
        input[at] = original;
        assert!(
            !judge(seed, &input[..at], &format!("cut at {at}")),
            "{}: a truncation decoded",
            seed.what
        );
    }
    for at in 0..input.len().saturating_sub(3) {
        let remaining = u32::try_from(input.len() - at - 4).expect("small input");
        let mut counted = input.clone();
        counted[at..at + 4].copy_from_slice(&remaining.to_le_bytes());
        judge(
            seed,
            &counted,
            &format!("count of the bytes remaining at {at}"),
        );
    }
    input.push(0);
    assert!(
        !judge(seed, &input, "a trailing byte"),
        "{}: trailing bytes decoded",
        seed.what
    );
}

#[test]
fn every_small_mutation_of_every_format_decodes_or_is_a_codec_error() {
    for seed in fixed_seeds() {
        exhaust(&seed);
    }
    let mut rng = SplitMix64::new(0x5EED);
    for _ in 0..4 {
        for seed in arb_seeds(&mut rng) {
            exhaust(&seed);
        }
    }
}

/// The long run: a thousand random seeds (two hundred of each format),
/// each exhausted, then hit with random multi-byte mutations — about 25 s
/// in a release build.
#[test]
#[ignore = "long; CI runs it in release with --include-ignored"]
fn a_thousand_random_seeds_decode_or_are_codec_errors() {
    let mut rng = SplitMix64::new(0xF022);
    for round in 0..200 {
        for seed in arb_seeds(&mut rng) {
            exhaust(&seed);
            for trial in 0..64 {
                let mut input = seed.bytes.clone();
                for _ in 0..rng.gen_range(2, 6) {
                    let at = rng.gen_range(0, input.len() as u64 - 1) as usize;
                    input[at] = rng.next_u64() as u8;
                }
                let keep = rng.gen_range(0, input.len() as u64) as usize;
                input.truncate(keep);
                judge(
                    &seed,
                    &input,
                    &format!("round {round}, random mutation {trial}"),
                );
            }
        }
    }
}
