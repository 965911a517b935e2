//! Write-through under contention. Four threads send on one connection
//! while its peer stalls, so sends go partial, queue behind each other
//! and hit the outbox cap; then the peer drains. Whichever thread wrote
//! each byte — a sender writing through or the worker flushing the
//! outbox — the peer must see whole frames, each sender's frames in
//! order, and every byte the senders handed over.

use rastor_net::reactor::{ConnHandle, Events, Reactor};
use rastor_net::wire::{self, Frame};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const SENDERS: u64 = 4;
const FRAMES: u64 = 2_000;
/// Times the peer stops reading until the outbox fills.
const STALLS: usize = 8;
/// Largest frame body: `corr` (8 B) + `ok` (1 B) + detail length (4 B)
/// + the detail itself.
const MAX_BODY: usize = 64 * 1024;

/// The sending side reads nothing back.
struct Mute;

impl Events for Mute {
    fn on_frame(&self, _conn: &ConnHandle, _raw: &[u8]) {}
}

/// Frame `seq` of sender `t`: the pair rides in `corr`, and the body
/// runs from 13 B to 64 KiB, log-uniformly, filled with a byte derived
/// from the pair so a misplaced chunk cannot pass for the right one.
fn frame(t: u64, seq: u64) -> Frame {
    let len = ((1usize << ((seq * 7 + t) % 17)) - 1).min(MAX_BODY - 13);
    let fill = b'a' + ((t * 7 + seq) % 26) as u8;
    Frame::AdminRep {
        corr: (t << 32) | seq,
        ok: true,
        detail: String::from_utf8(vec![fill; len]).expect("ascii"),
    }
}

#[test]
fn concurrent_senders_keep_frames_whole_and_in_order_under_partial_writes() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let reactor = Reactor::spawn(Arc::new(Mute), None).expect("reactor");
    let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let conn = reactor.handle().register(stream);
    let (peer, _) = listener.accept().expect("accept");
    peer.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");

    let expected_bytes: usize = (0..SENDERS)
        .flat_map(|t| (0..FRAMES).map(move |seq| wire::encode_frame(&frame(t, seq)).len()))
        .sum();
    let (stalled_tx, stalled_rx) = mpsc::sync_channel::<()>(1);

    std::thread::scope(|s| {
        // Owned by this closure, so a failed check below closes the
        // socket and the senders stop instead of waiting out backpressure.
        let mut peer = peer;
        for t in 0..SENDERS {
            let conn = conn.clone();
            let stalled_tx = stalled_tx.clone();
            s.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(60);
                for seq in 0..FRAMES {
                    let bytes = wire::encode_frame(&frame(t, seq));
                    // A full outbox sheds the frame; retry, so every frame
                    // is handed over exactly once.
                    while !conn.send(&bytes) {
                        if conn.is_closed() {
                            return; // the peer hung up; it reports why
                        }
                        assert!(Instant::now() < deadline, "sender {t} stuck at frame {seq}");
                        let _ = stalled_tx.try_send(());
                        std::thread::yield_now();
                    }
                }
            });
        }
        drop(stalled_tx);

        // Read nothing until some sender has found the kernel buffers and
        // the outbox full.
        stalled_rx
            .recv()
            .expect("the senders finished without ever filling the outbox");

        let mut stalls = 1;
        let mut next = [0u64; SENDERS as usize];
        let mut frames = 0;
        let mut received = 0usize;
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        while frames < SENDERS * FRAMES {
            // Stall again at each further eighth of the stream, so the
            // outbox fills and drains back to a partly written front
            // frame more than once. A fresh signal is awaited; none comes
            // once every sender is done.
            if received * STALLS >= stalls * expected_bytes {
                stalls += 1;
                while stalled_rx.try_recv().is_ok() {}
                let _ = stalled_rx.recv();
            }
            let n = peer.read(&mut chunk).expect("peer read");
            assert!(n > 0, "connection closed after {frames} frames");
            received += n;
            buf.extend_from_slice(&chunk[..n]);
            let mut used = 0;
            while let Some(len) = wire::frame_len(&buf[used..])
                .expect("stream misaligned: a frame was split or interleaved")
            {
                if buf.len() - used < len {
                    break;
                }
                let (got, _) = wire::decode_frame(&buf[used..used + len]).expect("whole frame");
                let Frame::AdminRep { corr, .. } = got else {
                    panic!("not a sent frame: {got:?}");
                };
                let (t, seq) = (corr >> 32, corr & 0xffff_ffff);
                assert_eq!(
                    seq, next[t as usize],
                    "sender {t}: a frame was lost or reordered"
                );
                assert!(
                    got == frame(t, seq),
                    "sender {t} frame {seq}: body corrupted"
                );
                next[t as usize] += 1;
                frames += 1;
                used += len;
            }
            buf.drain(..used);
        }
        assert!(buf.is_empty(), "a partial frame trails the last one");
        assert_eq!(received, expected_bytes, "bytes lost or duplicated");
    });
}
