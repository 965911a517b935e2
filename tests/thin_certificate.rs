//! The schedule that tells a thinned fast-path certificate from the sound
//! one, pinned as a single deterministic replay. `rastor_check`'s
//! round-split sweep finds and minimizes witnesses like it; this is the
//! hand-found one.
//!
//! `t = 1`, one writer writing 10, readers 0 and 1, object 1 equivocating
//! against reader 1 (it acks every write but shows reader 1 the initial
//! state). Three links crawl: the write's commit round to object 2, all of
//! the write's traffic to object 3, and reader 1's link to object 0. Reader
//! 0 then sees 10 committed at objects 0 and 1 and only pre-written at
//! object 2 — `t + 1` commits, not `S − t`.

use rastor::check::{cast_equivocate_to_reader_1, scenario_write_then_two_readers, ReadPath};
use rastor_common::{ClientId, Timestamp};

/// Bit 3: the write's traffic to object 3. Bit 8: reader 1's traffic to
/// object 0. Bit 14: the write's commit round to object 2.
const WITNESS: u64 = 1 << 3 | 1 << 8 | 1 << 14;

#[test]
fn the_thin_certificate_witness_replays() {
    let scenario = scenario_write_then_two_readers();
    let cast = cast_equivocate_to_reader_1();
    let op = |path, client| {
        let outcome = scenario.run_mask(path, WITNESS, &cast);
        let c = outcome
            .completions
            .iter()
            .find(|c| c.client == client)
            .expect("the op completes")
            .clone();
        (c.output.pair().ts, c.stat.rounds.get(), outcome.violations)
    };
    let read = |path, reader| op(path, ClientId::reader(reader));
    let written = op(ReadPath::Slow, ClientId::writer()).0;
    assert_ne!(written, Timestamp(0));

    // The thin certificate: 10 to reader 0 in one round, then ⊥ to reader 1.
    let (ts, rounds, violations) = read(ReadPath::ThinCertificate, 0);
    assert_eq!((ts, rounds), (written, 1));
    assert!(
        violations.iter().any(|v| v.contains("new/old inversion")),
        "{violations:?}"
    );
    assert_eq!(read(ReadPath::ThinCertificate, 1).0, Timestamp(0));

    // The sound paths return 10 to both: reader 0's fast read finds no
    // certificate and writes back, and reader 1 reads the write-back.
    for path in [ReadPath::Fast, ReadPath::Slow] {
        let (ts0, rounds0, violations) = read(path, 0);
        assert_eq!((ts0, rounds0), (written, 4), "{path:?}");
        assert!(violations.is_empty(), "{path:?}: {violations:?}");
        assert_eq!(read(path, 1).0, written, "{path:?}");
    }
}
