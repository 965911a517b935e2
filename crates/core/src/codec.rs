//! The one byte layout of the [`crate::msg`] vocabulary.
//!
//! `rastor_net::wire` frames these bodies for a byte stream and
//! `rastor_store` frames them as CRC'd WAL and snapshot records; neither
//! knows the layout. A restarted object must vouch for exactly the
//! `(ts, val, token)` pairs it acknowledged, so what it logged and what it
//! put on the wire are the same bytes by construction, not by two codecs
//! agreeing.
//!
//! ```text
//! RegId       tag u8 (0 = Writer, 1 = ReaderReg) · index u32
//! Stamped     ts u64 · value (u32 length + bytes) · token (0 | 1 · bits u64)
//! Pair        0 · Stamped                    (inline)
//!           | k u8 (1..=255)                 (the view's pair at position k − 1)
//! ObjectView  pw Stamped · w Pair · count u32 · hist Pair…
//! Req         tag u8 · 0 Collect: count u32 · RegId…
//!                      1 Store / 2 PreWrite / 3 Commit: RegId · Stamped
//! Rep         tag u8 · 0 Views: count u32 · (RegId · ObjectView)…
//!                      1 Ack: RegId · kind u8 (0 Store, 1 PreWrite, 2 Commit)
//! ```
//!
//! A view's pairs sit at positions `pw` = 0, `w` = 1, `hist[i]` = 2 + i. A
//! pair identical to one at an earlier position below 255 is written as a
//! one-byte reference to the first such position, so a quiet register,
//! whose `pw`, `w` and newest history entry are one pair, costs two
//! encoded pairs, not four. The form is canonical — a reference must point
//! backwards at a pair written inline, and a pair written inline must have
//! no identical pair among the earlier referable positions — so every
//! accepted body re-encodes to the same bytes. Decoding a reference shares
//! the referenced value.
//!
//! Integers are little-endian ([`rastor_common::bytes`]). The layout has no
//! version byte of its own: a change here is a change to both
//! `rastor_net::wire::WIRE_VERSION` and `rastor_store::wal::STORE_VERSION`.
//!
//! Malformed input decodes to [`Error::Codec`], never a panic, and no
//! sequence count is believed beyond what the bytes behind it can hold:
//! whoever produced the bytes (a Byzantine object, a corrupt disk) owns
//! them. A history entry may be a one-byte reference, so a history of `n`
//! entries needs `n` bytes behind its count.

use crate::msg::{AckKind, ObjectView, Rep, Req, Stamped};
use crate::token::Token;
use rastor_common::bytes::{put_bytes, put_len, put_u32, put_u64, Dec};
use rastor_common::{Error, RegId, Result, Timestamp, TsVal, Value};

/// Encoded size of a [`RegId`].
const REG_LEN: usize = 5;

/// Smallest encoded [`Stamped`]: timestamp, empty value, no token.
const MIN_STAMPED_LEN: usize = 8 + 4 + 1;

/// Smallest encoded `Pair`: a reference.
const MIN_PAIR_LEN: usize = 1;

/// Positions a reference can name: `1..=255` in one byte.
const REFERABLE: usize = u8::MAX as usize;

/// Smallest encoded `(RegId, ObjectView)`: `w` a reference to `pw`, an
/// empty history.
const MIN_REG_VIEW_LEN: usize = REG_LEN + MIN_STAMPED_LEN + MIN_PAIR_LEN + 4;

/// Smallest encoded [`Req`] (an empty `Collect`) — what an enclosing
/// sequence of requests may assume of every element.
pub const MIN_REQ_LEN: usize = 1 + 4;

/// Smallest encoded [`Rep`] (an empty `Views`).
pub const MIN_REP_LEN: usize = 1 + 4;

fn put_reg(out: &mut Vec<u8>, reg: RegId) {
    match reg {
        RegId::Writer(i) => {
            out.push(0);
            put_u32(out, i);
        }
        RegId::ReaderReg(i) => {
            out.push(1);
            put_u32(out, i);
        }
    }
}

fn put_stamped(out: &mut Vec<u8>, s: &Stamped) {
    put_u64(out, s.pair.ts.0);
    put_bytes(out, s.pair.val.as_bytes());
    match s.token {
        None => out.push(0),
        Some(tok) => {
            out.push(1);
            put_u64(out, tok.to_bits());
        }
    }
}

/// Whether two pairs are identical. An object's `pw`, `w` and history
/// share one allocation per value, so the pointer usually settles it.
fn same(a: &Stamped, b: &Stamped) -> bool {
    a.pair.ts == b.pair.ts
        && a.token == b.token
        && (std::ptr::eq(a.pair.val.as_bytes(), b.pair.val.as_bytes()) || a.pair.val == b.pair.val)
}

fn put_view(out: &mut Vec<u8>, v: &ObjectView) {
    let pairs = || [&v.pw, &v.w].into_iter().chain(&v.hist);
    // The pair at `pos`: a reference to the first identical referable
    // pair before it — which was itself written inline — or inline.
    let put_pair = |out: &mut Vec<u8>, pos: usize, s: &Stamped| match pairs()
        .take(pos.min(REFERABLE))
        .position(|e| same(e, s))
    {
        Some(q) => out.push(u8::try_from(q + 1).expect("q < REFERABLE")),
        None => {
            out.push(0);
            put_stamped(out, s);
        }
    };
    put_stamped(out, &v.pw);
    put_pair(out, 1, &v.w);
    put_len(out, v.hist.len());
    for (i, s) in v.hist.iter().enumerate() {
        put_pair(out, 2 + i, s);
    }
}

/// Append the encoding of one request to `out`.
pub fn encode_req(req: &Req, out: &mut Vec<u8>) {
    let (tag, reg, pair) = match req {
        Req::Collect { regs } => {
            out.push(0);
            put_len(out, regs.len());
            for r in regs {
                put_reg(out, *r);
            }
            return;
        }
        Req::Store { reg, pair } => (1, reg, pair),
        Req::PreWrite { reg, pair } => (2, reg, pair),
        Req::Commit { reg, pair } => (3, reg, pair),
    };
    out.push(tag);
    put_reg(out, *reg);
    put_stamped(out, pair);
}

/// Append the encoding of one reply to `out`.
pub fn encode_rep(rep: &Rep, out: &mut Vec<u8>) {
    match rep {
        Rep::Views { views } => {
            out.push(0);
            put_len(out, views.len());
            for (reg, view) in views {
                encode_reg_view(*reg, view, out);
            }
        }
        Rep::Ack { reg, kind } => {
            out.push(1);
            put_reg(out, *reg);
            out.push(match kind {
                AckKind::Store => 0,
                AckKind::PreWrite => 1,
                AckKind::Commit => 2,
            });
        }
    }
}

/// Append the encoding of one register's view — an element of
/// [`Rep::Views`], and on its own a snapshot entry — to `out`.
pub fn encode_reg_view(reg: RegId, view: &ObjectView, out: &mut Vec<u8>) {
    put_reg(out, reg);
    put_view(out, view);
}

fn read_reg(d: &mut Dec<'_>) -> Result<RegId> {
    match d.u8()? {
        0 => Ok(RegId::Writer(d.u32()?)),
        1 => Ok(RegId::ReaderReg(d.u32()?)),
        t => Err(Error::codec(format!("unknown register tag {t}"))),
    }
}

fn read_stamped(d: &mut Dec<'_>) -> Result<Stamped> {
    let ts = Timestamp(d.u64()?);
    let val = Value::copy_from_slice(d.bytes()?);
    let token = match d.u8()? {
        0 => None,
        1 => Some(Token::from_bits(d.u64()?)),
        t => return Err(Error::codec(format!("unknown token-presence tag {t}"))),
    };
    Ok(Stamped {
        pair: TsVal::new(ts, val),
        token,
    })
}

/// Decode the view pair behind `head` (`pw`, or `pw` and `w`) and `hist`,
/// holding it to the canonical form: a reference points back at a pair
/// written inline, and an inline pair repeats no referable one.
fn read_pair(d: &mut Dec<'_>, head: &[Stamped], hist: &[Stamped]) -> Result<Stamped> {
    let pos = head.len() + hist.len();
    let earlier = || head.iter().chain(hist);
    match d.u8()? {
        0 => {
            let s = read_stamped(d)?;
            match earlier().take(REFERABLE).position(|e| same(e, &s)) {
                None => Ok(s),
                Some(q) => Err(Error::codec(format!(
                    "view pair {pos} repeats pair {q} inline instead of referring to it"
                ))),
            }
        }
        k => {
            let q = usize::from(k - 1);
            match earlier().nth(q) {
                Some(s) if !earlier().take(q).any(|e| same(e, s)) => Ok(s.clone()),
                Some(_) => Err(Error::codec(format!(
                    "view pair {pos} refers to pair {q}, itself a repeat"
                ))),
                None => Err(Error::codec(format!(
                    "view pair {pos} refers to pair {q}, not yet written"
                ))),
            }
        }
    }
}

fn read_view(d: &mut Dec<'_>) -> Result<ObjectView> {
    let pw = read_stamped(d)?;
    let w = read_pair(d, std::slice::from_ref(&pw), &[])?;
    let head = [pw, w];
    let n = d.seq_len(MIN_PAIR_LEN)?;
    let mut hist = Vec::with_capacity(n);
    for _ in 0..n {
        let s = read_pair(d, &head, &hist)?;
        hist.push(s);
    }
    let [pw, w] = head;
    Ok(ObjectView { pw, w, hist })
}

fn read_entry(d: &mut Dec<'_>) -> Result<(RegId, ObjectView)> {
    Ok((read_reg(d)?, read_view(d)?))
}

/// Decode one request at the cursor (the inverse of [`encode_req`]),
/// leaving the cursor behind it.
///
/// # Errors
///
/// [`Error::Codec`] on any malformation.
pub fn read_req(d: &mut Dec<'_>) -> Result<Req> {
    match d.u8()? {
        0 => {
            let n = d.seq_len(REG_LEN)?;
            let mut regs = Vec::with_capacity(n);
            for _ in 0..n {
                regs.push(read_reg(d)?);
            }
            Ok(Req::Collect { regs })
        }
        tag @ 1..=3 => {
            let reg = read_reg(d)?;
            let pair = read_stamped(d)?;
            Ok(match tag {
                1 => Req::Store { reg, pair },
                2 => Req::PreWrite { reg, pair },
                _ => Req::Commit { reg, pair },
            })
        }
        t => Err(Error::codec(format!("unknown request tag {t}"))),
    }
}

/// Decode one reply at the cursor (the inverse of [`encode_rep`]), leaving
/// the cursor behind it.
///
/// # Errors
///
/// [`Error::Codec`] on any malformation.
pub fn read_rep(d: &mut Dec<'_>) -> Result<Rep> {
    match d.u8()? {
        0 => {
            let n = d.seq_len(MIN_REG_VIEW_LEN)?;
            let mut views = Vec::with_capacity(n);
            for _ in 0..n {
                views.push(read_entry(d)?);
            }
            Ok(Rep::Views { views })
        }
        1 => Ok(Rep::Ack {
            reg: read_reg(d)?,
            kind: match d.u8()? {
                0 => AckKind::Store,
                1 => AckKind::PreWrite,
                2 => AckKind::Commit,
                t => return Err(Error::codec(format!("unknown ack kind {t}"))),
            },
        }),
        t => Err(Error::codec(format!("unknown reply tag {t}"))),
    }
}

/// Decode a body that is exactly one request; rejects trailing bytes.
///
/// # Errors
///
/// [`Error::Codec`] on any malformation.
pub fn decode_req(body: &[u8]) -> Result<Req> {
    let mut d = Dec::new(body);
    let req = read_req(&mut d)?;
    d.done()?;
    Ok(req)
}

/// Decode a body that is exactly one register's view (the inverse of
/// [`encode_reg_view`]); rejects trailing bytes.
///
/// # Errors
///
/// [`Error::Codec`] on any malformation.
pub fn decode_reg_view(body: &[u8]) -> Result<(RegId, ObjectView)> {
    let mut d = Dec::new(body);
    let entry = read_entry(&mut d)?;
    d.done()?;
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamped(ts: u64, v: u64) -> Stamped {
        Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(v)))
    }

    fn tokened(ts: u64, v: u64, bits: u64) -> Stamped {
        Stamped {
            token: Some(Token::from_bits(bits)),
            ..stamped(ts, v)
        }
    }

    fn sample_view() -> ObjectView {
        ObjectView {
            pw: tokened(4, 40, 0xDEAD_BEEF),
            w: Stamped::bottom(),
            hist: vec![
                Stamped::bottom(),
                stamped(3, 30),
                tokened(4, 40, 0xDEAD_BEEF),
            ],
        }
    }

    fn sample_reqs() -> Vec<Req> {
        vec![
            Req::Collect {
                regs: vec![RegId::WRITER, RegId::ReaderReg(2)],
            },
            Req::Store {
                reg: RegId::WRITER,
                pair: stamped(1, 10),
            },
            Req::PreWrite {
                reg: RegId::ReaderReg(3),
                pair: stamped(2, 20),
            },
            Req::Commit {
                reg: RegId::Writer(7),
                pair: tokened(3, 30, u64::MAX),
            },
        ]
    }

    fn enc_req(req: &Req) -> Vec<u8> {
        let mut out = Vec::new();
        encode_req(req, &mut out);
        out
    }

    fn enc_stamped(s: &Stamped) -> Vec<u8> {
        let mut out = Vec::new();
        put_stamped(&mut out, s);
        out
    }

    #[test]
    fn requests_roundtrip_and_their_minimum_is_exact() {
        for req in sample_reqs() {
            assert_eq!(decode_req(&enc_req(&req)).expect("decodes"), req);
        }
        assert_eq!(enc_req(&Req::Collect { regs: vec![] }).len(), MIN_REQ_LEN);
    }

    #[test]
    fn replies_roundtrip_and_their_minimum_is_exact() {
        let reps = [
            Rep::Views {
                views: vec![
                    (RegId::WRITER, sample_view()),
                    (RegId::ReaderReg(1), ObjectView::default()),
                ],
            },
            Rep::Ack {
                reg: RegId::Writer(2),
                kind: AckKind::PreWrite,
            },
        ];
        for rep in reps {
            let mut body = Vec::new();
            encode_rep(&rep, &mut body);
            let mut d = Dec::new(&body);
            assert_eq!(read_rep(&mut d).expect("decodes"), rep);
            d.done().expect("fully consumed");
        }
        let mut body = Vec::new();
        encode_rep(&Rep::Views { views: vec![] }, &mut body);
        assert_eq!(body.len(), MIN_REP_LEN);
    }

    /// A snapshot entry is one `Rep::Views` element, byte for byte.
    #[test]
    fn a_reg_view_is_a_views_element() {
        let mut entry = Vec::new();
        encode_reg_view(RegId::ReaderReg(2), &sample_view(), &mut entry);
        assert_eq!(
            decode_reg_view(&entry).expect("decodes"),
            (RegId::ReaderReg(2), sample_view())
        );
        let mut rep = Vec::new();
        encode_rep(
            &Rep::Views {
                views: vec![(RegId::ReaderReg(2), sample_view())],
            },
            &mut rep,
        );
        assert_eq!(rep[5..], entry[..]);
        // The element minimums the sequence bounds rely on are exact.
        let mut min = Vec::new();
        encode_reg_view(RegId::WRITER, &ObjectView::default(), &mut min);
        assert_eq!(min.len(), MIN_REG_VIEW_LEN);
        assert_eq!(enc_stamped(&Stamped::bottom()).len(), MIN_STAMPED_LEN);
    }

    #[test]
    fn every_truncation_and_trailing_byte_is_a_codec_error() {
        for req in sample_reqs() {
            let mut body = enc_req(&req);
            for cut in 0..body.len() {
                assert!(decode_req(&body[..cut]).is_err(), "{req:?} cut at {cut}");
            }
            body.push(0);
            assert!(decode_req(&body).is_err(), "{req:?} with a trailing byte");
        }
        for view in [sample_view(), quiet_view(1024)] {
            let mut entry = Vec::new();
            encode_reg_view(RegId::WRITER, &view, &mut entry);
            for cut in 0..entry.len() {
                assert!(decode_reg_view(&entry[..cut]).is_err(), "cut at {cut}");
            }
            entry.push(0);
            assert!(decode_reg_view(&entry).is_err(), "a trailing byte");
        }
    }

    /// What a correct object reports for a register written twice and
    /// then left alone: `pw`, `w` and the newest history entry are one
    /// pair. Each value is its own allocation, as after a decode.
    fn quiet_view(len: usize) -> ObjectView {
        let pair = |ts: u64| {
            Stamped::plain(TsVal::new(
                Timestamp(ts),
                Value::from_bytes(vec![ts as u8; len]),
            ))
        };
        ObjectView {
            pw: pair(2),
            w: pair(2),
            hist: vec![pair(1), pair(2)],
        }
    }

    #[test]
    fn a_quiet_view_writes_each_pair_once() {
        let view = quiet_view(1024);
        let stamped_len = enc_stamped(&view.pw).len();
        assert_eq!(stamped_len, 1037);
        let mut entry = Vec::new();
        encode_reg_view(RegId::WRITER, &view, &mut entry);
        assert!(
            entry.len() <= 2 * stamped_len + 16,
            "a quiet view of {} bytes",
            entry.len()
        );
        assert_eq!(decode_reg_view(&entry).expect("decodes").1, view);
    }

    /// A view of `len` pairs drawn from a small pool — so pairs repeat,
    /// share a timestamp with another value or token, and `pw` need not be
    /// the newest — with some fresh pairs mixed in.
    fn arb_view(rng: &mut rastor_common::SplitMix64, len: usize) -> ObjectView {
        let pool = [
            stamped(1, 10),
            stamped(2, 20),
            stamped(2, 21),
            tokened(2, 20, 7),
            tokened(2, 20, 8),
            Stamped::bottom(),
        ];
        let mut draw = |i: usize| {
            if rng.next_f64() < 0.8 {
                pool[rng.gen_range(0, pool.len() as u64 - 1) as usize].clone()
            } else {
                stamped(100 + i as u64, rng.next_u64())
            }
        };
        ObjectView {
            pw: draw(0),
            w: draw(1),
            hist: (2..len).map(&mut draw).collect(),
        }
    }

    fn roundtrips_exactly(view: &ObjectView) {
        let mut entry = Vec::new();
        encode_reg_view(RegId::ReaderReg(1), view, &mut entry);
        let (_, decoded) = decode_reg_view(&entry).expect("decodes");
        assert_eq!(&decoded, view);
        let mut again = Vec::new();
        encode_reg_view(RegId::ReaderReg(1), &decoded, &mut again);
        assert_eq!(again, entry, "the decoded view re-encodes differently");
    }

    #[test]
    fn random_and_byzantine_views_roundtrip_exactly() {
        let mut rng = rastor_common::SplitMix64::new(28);
        for _ in 0..500 {
            let len = 2 + rng.gen_range(0, 8) as usize;
            roundtrips_exactly(&arb_view(&mut rng, len));
        }
        // Past the referable positions: a pair first written at position
        // 300 is written inline each time it repeats.
        let mut long = arb_view(&mut rng, 600);
        let late = stamped(9_999, 1);
        for i in [298, 400, 500] {
            long.hist[i] = late.clone();
        }
        roundtrips_exactly(&long);
        let byzantine = [
            // A pair listed twice.
            ObjectView {
                pw: stamped(2, 20),
                w: stamped(1, 10),
                hist: vec![stamped(2, 20), stamped(2, 20)],
            },
            // One timestamp, another value and another token.
            ObjectView {
                pw: tokened(2, 20, 1),
                w: tokened(2, 21, 1),
                hist: vec![tokened(2, 20, 2), stamped(2, 20)],
            },
            // `pw` is not the newest entry.
            ObjectView {
                pw: stamped(1, 10),
                w: stamped(1, 10),
                hist: vec![stamped(1, 10), stamped(3, 30)],
            },
        ];
        for view in &byzantine {
            roundtrips_exactly(view);
        }
    }

    /// The bytes of a view entry of register `WRITER` whose `pw` is
    /// `pw`, followed by `rest`.
    fn entry_of(pw: &Stamped, rest: &[&[u8]]) -> Vec<u8> {
        let mut entry = vec![0, 0, 0, 0, 0];
        put_stamped(&mut entry, pw);
        for part in rest {
            entry.extend_from_slice(part);
        }
        entry
    }

    #[test]
    fn a_reference_must_point_back_at_a_pair_written_inline() {
        let a = stamped(1, 10);
        let inline_a = [&[0u8][..], &enc_stamped(&a)].concat();
        let no_hist = 0u32.to_le_bytes();
        let one_entry = 1u32.to_le_bytes();
        // Canonical: `w` refers to `pw`, and the entry to `pw`.
        let good = entry_of(&a, &[&[1], &one_entry, &[1]]);
        let (_, view) = decode_reg_view(&good).expect("canonical");
        assert_eq!(view.hist, std::slice::from_ref(&a));
        let refused = [
            // `w` refers to itself, or past the end.
            entry_of(&a, &[&[2], &no_hist]),
            entry_of(&a, &[&[255], &no_hist]),
            // The entry refers to `w`, itself a reference.
            entry_of(&a, &[&[1], &one_entry, &[2]]),
            // `w` repeats `pw` inline.
            entry_of(&a, &[&inline_a, &no_hist]),
        ];
        for entry in refused {
            assert!(
                matches!(decode_reg_view(&entry), Err(Error::Codec { .. })),
                "{entry:?}"
            );
        }
    }

    /// `bytes` decodes to a codec error raised by the sequence-count bound
    /// itself — before any allocation sized by the count — not by a later
    /// element read running off the end.
    fn assert_count_refused(result: Result<impl std::fmt::Debug>) {
        match result {
            Err(Error::Codec { detail }) if detail.contains("sequence length") => {}
            other => panic!("expected the count bound to refuse, got {other:?}"),
        }
    }

    /// Overwrite the `u32` count at `at` with the number of bytes behind
    /// it plus `extra`.
    fn claim_bytes_remaining_plus(body: &mut [u8], at: usize, extra: u32) {
        let remaining = u32::try_from(body.len() - at - 4).expect("small body");
        body[at..at + 4].copy_from_slice(&(remaining + extra).to_le_bytes());
    }

    /// A history entry may be a one-byte reference, so the bound lets a
    /// count of the bytes behind it through — and refuses one more.
    #[test]
    fn a_hist_count_beyond_the_bytes_remaining_is_refused() {
        let view = sample_view();
        let mut entry = Vec::new();
        encode_reg_view(RegId::WRITER, &view, &mut entry);
        let count_at = REG_LEN + enc_stamped(&view.pw).len() + 1 + enc_stamped(&view.w).len();
        assert_eq!(entry[count_at..count_at + 4], 3u32.to_le_bytes());
        claim_bytes_remaining_plus(&mut entry, count_at, 1);
        assert_count_refused(decode_reg_view(&entry));
    }

    /// Overwrite the `u32` count at `at` with the number of bytes behind
    /// it: the largest count a one-byte-per-element bound lets through.
    fn claim_one_element_per_byte(body: &mut [u8], at: usize) {
        claim_bytes_remaining_plus(body, at, 0);
    }

    #[test]
    fn a_views_count_of_the_bytes_remaining_is_refused() {
        let mut body = Vec::new();
        encode_rep(
            &Rep::Views {
                views: vec![(RegId::WRITER, sample_view()); 3],
            },
            &mut body,
        );
        claim_one_element_per_byte(&mut body, 1);
        assert_count_refused(read_rep(&mut Dec::new(&body)));
    }

    #[test]
    fn a_regs_count_of_the_bytes_remaining_is_refused() {
        let mut body = enc_req(&Req::Collect {
            regs: vec![RegId::WRITER; 4],
        });
        claim_one_element_per_byte(&mut body, 1);
        assert_count_refused(decode_req(&body));
    }
}
