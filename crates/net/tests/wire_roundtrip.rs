//! Property-based coverage of the wire codec: arbitrary `Req`/`Rep` trees
//! survive an encode→decode roundtrip bit-exactly, and malformed bytes —
//! truncations, garbage prefixes, foreign versions — are rejected with
//! typed errors, never panics and never silent misdecodes.

use proptest::prelude::*;
use rastor_common::bytes::Dec;
use rastor_common::{ClientId, Error, ObjectId, RegId, SplitMix64, Timestamp, TsVal, Value};
use rastor_core::codec;
use rastor_core::msg::{AckKind, ObjectView, Rep, Req, Stamped};
use rastor_core::object::HonestObject;
use rastor_core::token::Token;
use rastor_net::wire::{
    self, Frame, RepEnvelope, ReqEnvelope, WireRepFrame, WireReqFrame, WIRE_VERSION,
};
use rastor_obs::trace;
use rastor_sim::runtime::{ThreadCluster, Transport};
use rastor_sim::ObjectBehavior;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Generators: structured trees derived from one drawn seed, so the vendored
// strategy vocabulary (int ranges) covers deep message shapes too.
// ---------------------------------------------------------------------------

fn arb_value(rng: &mut SplitMix64) -> Value {
    let len = rng.gen_range(0, 24) as usize;
    Value::from_bytes((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<_>>())
}

fn arb_stamped(rng: &mut SplitMix64) -> Stamped {
    Stamped {
        pair: TsVal::new(Timestamp(rng.next_u64()), arb_value(rng)),
        token: (rng.next_f64() < 0.5).then(|| Token::from_bits(rng.next_u64())),
    }
}

fn arb_reg(rng: &mut SplitMix64) -> RegId {
    let i = rng.gen_range(0, 1 << 20) as u32;
    if rng.next_f64() < 0.5 {
        RegId::Writer(i)
    } else {
        RegId::ReaderReg(i)
    }
}

fn arb_view(rng: &mut SplitMix64) -> ObjectView {
    let hist_len = rng.gen_range(0, 6) as usize;
    ObjectView {
        pw: arb_stamped(rng),
        w: arb_stamped(rng),
        hist: (0..hist_len).map(|_| arb_stamped(rng)).collect(),
    }
}

fn arb_req(rng: &mut SplitMix64) -> Req {
    match rng.gen_range(0, 3) {
        0 => Req::Collect {
            regs: (0..rng.gen_range(0, 8)).map(|_| arb_reg(rng)).collect(),
        },
        1 => Req::Store {
            reg: arb_reg(rng),
            pair: arb_stamped(rng),
        },
        2 => Req::PreWrite {
            reg: arb_reg(rng),
            pair: arb_stamped(rng),
        },
        _ => Req::Commit {
            reg: arb_reg(rng),
            pair: arb_stamped(rng),
        },
    }
}

fn arb_rep(rng: &mut SplitMix64) -> Rep {
    if rng.next_f64() < 0.5 {
        Rep::Views {
            views: (0..rng.gen_range(0, 5))
                .map(|_| (arb_reg(rng), arb_view(rng)))
                .collect(),
        }
    } else {
        Rep::Ack {
            reg: arb_reg(rng),
            kind: match rng.gen_range(0, 2) {
                0 => AckKind::Store,
                1 => AckKind::PreWrite,
                _ => AckKind::Commit,
            },
        }
    }
}

fn arb_client(rng: &mut SplitMix64) -> ClientId {
    if rng.next_f64() < 0.2 {
        ClientId::writer()
    } else {
        ClientId::reader(rng.gen_range(0, 1 << 16) as u32)
    }
}

fn arb_frame(rng: &mut SplitMix64) -> Frame {
    if rng.next_f64() < 0.5 {
        Frame::Req(ReqEnvelope {
            from: arb_client(rng),
            frames: (0..rng.gen_range(0, 8))
                .map(|_| WireReqFrame {
                    op_nonce: rng.next_u64(),
                    round: rng.gen_range(1, 64) as u32,
                    trace: rng.next_u64(),
                    req: arb_req(rng),
                })
                .collect(),
        })
    } else {
        Frame::Rep(RepEnvelope {
            to: arb_client(rng),
            from: ObjectId(rng.gen_range(0, 1 << 16) as u32),
            frames: (0..rng.gen_range(0, 8))
                .map(|_| WireRepFrame {
                    op_nonce: rng.next_u64(),
                    round: rng.gen_range(1, 64) as u32,
                    trace: rng.next_u64(),
                    rep: arb_rep(rng),
                })
                .collect(),
        })
    }
}

proptest! {
    /// Arbitrary request trees roundtrip bit-exactly through the
    /// standalone body codec.
    #[test]
    fn req_bodies_roundtrip(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..8 {
            let req = arb_req(&mut rng);
            let mut bytes = Vec::new();
            codec::encode_req(&req, &mut bytes);
            prop_assert_eq!(codec::decode_req(&bytes).expect("decodes"), req);
        }
    }

    /// Arbitrary reply trees (views with histories, tokens, acks)
    /// roundtrip bit-exactly.
    #[test]
    fn rep_bodies_roundtrip(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..8 {
            let rep = arb_rep(&mut rng);
            let mut bytes = Vec::new();
            codec::encode_rep(&rep, &mut bytes);
            let mut d = Dec::new(&bytes);
            prop_assert_eq!(codec::read_rep(&mut d).expect("decodes"), rep);
            d.done().expect("fully consumed");
        }
    }

    /// Whole envelopes — both kinds — roundtrip through the framed codec,
    /// and the decoder reports exactly the encoded length as consumed even
    /// with trailing bytes behind the frame.
    #[test]
    fn framed_envelopes_roundtrip(seed in 0u64..u64::MAX, trailing in 0usize..16) {
        let mut rng = SplitMix64::new(seed);
        let frame = arb_frame(&mut rng);
        let mut bytes = wire::encode_frame(&frame);
        let frame_len = bytes.len();
        bytes.extend((0..trailing).map(|_| rng.next_u64() as u8));
        let (decoded, used) = wire::decode_frame(&bytes).expect("decodes");
        prop_assert_eq!(used, frame_len);
        prop_assert_eq!(decoded, frame);
    }

    /// No strict prefix of a valid frame decodes: every truncation point
    /// yields a typed codec error (and in particular, no panic and no
    /// silent partial decode).
    #[test]
    fn truncations_are_rejected(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        let bytes = wire::encode_frame(&arb_frame(&mut rng));
        for cut in 0..bytes.len() {
            match wire::decode_frame(&bytes[..cut]) {
                Err(Error::Codec { .. }) => {}
                other => prop_assert!(false, "cut at {}: {:?}", cut, other),
            }
        }
    }

    /// Garbage where the magic belongs is rejected up front.
    #[test]
    fn garbage_prefixes_are_rejected(seed in 0u64..u64::MAX, noise in 1u8..=255) {
        let mut rng = SplitMix64::new(seed);
        let mut bytes = wire::encode_frame(&arb_frame(&mut rng));
        bytes[0] ^= noise; // any corruption of the first magic byte
        match wire::decode_frame(&bytes) {
            Err(Error::Codec { .. }) => {}
            other => prop_assert!(false, "corrupt magic decoded: {:?}", other),
        }
    }

    /// A foreign version byte is its own error carrying both versions, so
    /// a future v2 peer is diagnosable rather than "corrupt".
    #[test]
    fn version_mismatches_are_typed(seed in 0u64..u64::MAX, got in 0u8..=255) {
        if got == WIRE_VERSION {
            return Ok(());
        }
        let mut rng = SplitMix64::new(seed);
        let mut bytes = wire::encode_frame(&arb_frame(&mut rng));
        bytes[2] = got;
        prop_assert_eq!(
            wire::decode_frame(&bytes).unwrap_err(),
            Error::VersionMismatch { got, want: WIRE_VERSION }
        );
    }

    /// Arbitrary byte soup never panics the decoder: it decodes or it
    /// errors, and anything that decodes re-encodes to the bytes it
    /// consumed (the codec is a bijection on its image).
    #[test]
    fn byte_soup_never_panics(seed in 0u64..u64::MAX, len in 0usize..200) {
        let mut rng = SplitMix64::new(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        if let Ok((frame, used)) = wire::decode_frame(&bytes) {
            prop_assert_eq!(wire::encode_frame(&frame), bytes[..used].to_vec());
        }
    }

    /// The trace word survives the codec at both extremes: an *untraced*
    /// frame (trace 0, the overwhelmingly common case) and a traced one
    /// with an arbitrary id roundtrip bit-exactly, on both the request
    /// and the reply side.
    #[test]
    fn traced_and_untraced_frames_roundtrip(seed in 0u64..u64::MAX, trace in 1u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        for trace in [0u64, trace] {
            let req = Frame::Req(ReqEnvelope {
                from: arb_client(&mut rng),
                frames: vec![WireReqFrame {
                    op_nonce: rng.next_u64(),
                    round: rng.gen_range(1, 64) as u32,
                    trace,
                    req: arb_req(&mut rng),
                }],
            });
            let rep = Frame::Rep(RepEnvelope {
                to: arb_client(&mut rng),
                from: ObjectId(rng.gen_range(0, 1 << 16) as u32),
                frames: vec![WireRepFrame {
                    op_nonce: rng.next_u64(),
                    round: rng.gen_range(1, 64) as u32,
                    trace,
                    rep: arb_rep(&mut rng),
                }],
            });
            for frame in [req, rep] {
                let bytes = wire::encode_frame(&frame);
                let (decoded, used) = wire::decode_frame(&bytes).expect("decodes");
                prop_assert_eq!(used, bytes.len());
                prop_assert_eq!(decoded, frame);
            }
        }
    }

    /// Version negotiation as the servers do it, on raw buffered bytes: a
    /// foreign-version frame ahead of a valid one is split off *whole* by
    /// `frame_len`, `raw_version` / `raw_corr` read the version byte and
    /// the body's leading correlation id off it undecoded, and the bytes
    /// behind it decode as the valid frame — the buffer stayed
    /// frame-aligned (the v1↔v2 coexistence contract).
    #[test]
    fn foreign_version_frames_are_split_whole_and_realigned(
        seed in 0u64..u64::MAX,
        got in 0u8..=255,
    ) {
        if got == WIRE_VERSION {
            return Ok(());
        }
        let mut rng = SplitMix64::new(seed);
        let mut foreign = wire::encode_frame(&arb_frame(&mut rng));
        foreign[2] = got;
        // The foreign body's first 8 bytes, as the correlation contract
        // reads them (0 when the body is shorter).
        let want_corr = foreign
            .get(8..16)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .unwrap_or(0);
        let valid = arb_frame(&mut rng);
        let foreign_len = foreign.len();
        let mut buf = foreign;
        buf.extend(wire::encode_frame(&valid));

        let split = wire::frame_len(&buf).expect("well framed").expect("whole");
        prop_assert_eq!(split, foreign_len);
        prop_assert_eq!(wire::raw_version(&buf[..split]), got);
        prop_assert_eq!(wire::raw_corr(&buf[..split]), want_corr);
        let (next, used) = wire::decode_frame(&buf[split..]).expect("next frame decodes");
        prop_assert_eq!(next, valid);
        prop_assert_eq!(split + used, buf.len());
    }
}

/// One envelope vocabulary on both substrates: every reply envelope an
/// in-process cluster puts on a client's channel is a wire envelope — it
/// encodes as a [`Frame::Rep`] and decodes back unchanged — and each of
/// its frames echoes the trace id of the request it answers.
#[test]
fn in_process_reply_envelopes_survive_the_wire_and_echo_trace_ids() {
    const TRACED: u64 = 0xfeed_beef;
    let behaviors = (0..4)
        .map(|_| Box::new(HonestObject::new()) as Box<dyn ObjectBehavior<Req, Rep> + Send>)
        .collect();
    let cluster: ThreadCluster<Req, Rep> = ThreadCluster::spawn(behaviors, None);
    let from = ClientId::writer();
    let pair = Stamped::plain(TsVal::new(Timestamp(1), Value::from_u64(7)));
    let env = ReqEnvelope {
        from,
        frames: vec![
            WireReqFrame {
                op_nonce: 1,
                round: 1,
                trace: TRACED,
                req: Req::Commit {
                    reg: RegId::WRITER,
                    pair,
                },
            },
            WireReqFrame {
                op_nonce: 2,
                round: 3,
                trace: trace::NO_TRACE,
                req: Req::Collect {
                    regs: vec![RegId::WRITER],
                },
            },
        ],
    };
    let (tx, rx) = std::sync::mpsc::channel();
    cluster.send_frames(env, &tx);
    let mut objects = Vec::new();
    for _ in 0..4 {
        let rep = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("every object answers");
        assert_eq!(rep.to, from);
        let echoed: Vec<_> = rep
            .frames
            .iter()
            .map(|f| (f.op_nonce, f.round, f.trace))
            .collect();
        assert_eq!(echoed, [(1, 1, TRACED), (2, 3, trace::NO_TRACE)]);
        objects.push(rep.from.0);
        let frame = Frame::Rep(rep);
        let bytes = wire::encode_frame(&frame);
        let (decoded, used) = wire::decode_frame(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, frame);
    }
    objects.sort_unstable();
    assert_eq!(objects, [0, 1, 2, 3]);
}
