//! Fault-injection harness for the trace loaders: corrupted inputs must
//! yield structured [`TraceError`]s, never panics. The sweeps below run the
//! shared [`mutate`] families over a valid trace (every truncation point,
//! every single-bit flip, every splice with a second trace), so any future
//! panic path in the parser fails here first.

use ppf_trace::{load_trace_csv, mutate, AccessPattern, TraceError, TraceFile};

const MAGIC: [u8; 8] = *b"PPFT\x01\0\0\0";
const RECORD_BYTES: usize = 19;

/// A well-formed trace built by hand against the documented format.
fn trace_of(records: &[(u64, u64, u8, u8)]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    for &(pc, addr, flags, work) in records {
        bytes.extend_from_slice(&pc.to_le_bytes());
        bytes.extend_from_slice(&addr.to_le_bytes());
        bytes.push(flags);
        bytes.push(work);
        bytes.push(0); // reserved
    }
    bytes
}

/// The 3-record trace every sweep starts from.
fn valid_trace() -> Vec<u8> {
    trace_of(&[
        (0x400100, 0x1000, 0b00, 3),
        (0x400108, 0x2000, 0b01, 0),
        (0x400110, 0x3000, 0b10, 7),
    ])
}

#[test]
fn valid_trace_parses() {
    let mut t = TraceFile::from_bytes(&valid_trace()).expect("well-formed");
    assert_eq!(t.len(), 3);
    assert_eq!(t.next_record().pc, 0x400100);
}

/// Every possible truncation either shortens the trace at a record boundary
/// (still valid, or Empty at the bare header) or yields the matching
/// truncation error — and none of them panic.
#[test]
fn truncation_sweep_classifies_every_cut() {
    let full = valid_trace();
    for prefix in mutate::prefixes(&full) {
        let cut = prefix.len();
        let got = TraceFile::from_bytes(prefix);
        if cut < MAGIC.len() {
            assert!(
                matches!(got, Err(TraceError::TruncatedHeader { got }) if got == cut),
                "cut {cut}: {got:?}"
            );
        } else if cut == MAGIC.len() {
            assert!(matches!(got, Err(TraceError::Empty)), "cut {cut}: {got:?}");
        } else if (cut - MAGIC.len()).is_multiple_of(RECORD_BYTES) {
            let t = got.unwrap_or_else(|e| panic!("cut {cut} on a record boundary: {e}"));
            assert_eq!(t.len(), (cut - MAGIC.len()) / RECORD_BYTES);
        } else {
            let (record, partial) =
                ((cut - MAGIC.len()) / RECORD_BYTES, (cut - MAGIC.len()) % RECORD_BYTES);
            assert!(
                matches!(got, Err(TraceError::TruncatedRecord { record: r, got: g })
                         if r == record && g == partial),
                "cut {cut}: {got:?}"
            );
        }
    }
}

/// Flipping every bit in turn: header flips are BadMagic, flips of an
/// undefined flag bit or a reserved bit are MalformedRecord, and flips of
/// a defined flag bit or a payload bit still parse (the format cannot
/// police pc/addr/work values). Nothing panics.
#[test]
fn bit_flip_sweep_never_panics() {
    let full = valid_trace();
    for (n, bytes) in mutate::bit_flips(&full).enumerate() {
        let (pos, bit) = (n / 8, n % 8);
        let got = TraceFile::from_bytes(&bytes);
        if pos < MAGIC.len() {
            assert!(matches!(got, Err(TraceError::BadMagic { .. })), "pos {pos}:{bit}: {got:?}");
            continue;
        }
        let record = (pos - MAGIC.len()) / RECORD_BYTES;
        match ((pos - MAGIC.len()) % RECORD_BYTES, bit) {
            (16, 2..) | (18, _) => assert!(
                matches!(got, Err(TraceError::MalformedRecord { record: r, .. }) if r == record),
                "pos {pos}:{bit}: {got:?}"
            ),
            _ => {
                got.unwrap_or_else(|e| panic!("data flip at {pos}:{bit} must still parse: {e}"));
            }
        }
    }
}

/// Splicing two valid traces at any offset keeps every field at its place,
/// so each splice is a valid trace as long as the source it ends with.
#[test]
fn splices_of_two_traces_are_traces() {
    let (a, b) = (valid_trace(), trace_of(&[(0x500000, 0xdead_0000, 0b11, 255), (1, 2, 0b00, 0)]));
    for bytes in mutate::splices(&a, &b) {
        let t = TraceFile::from_bytes(&bytes).unwrap_or_else(|e| panic!("{bytes:02x?}: {e}"));
        assert_eq!(t.len(), (bytes.len() - MAGIC.len()) / RECORD_BYTES);
    }
}

#[test]
fn low_flag_bits_and_work_byte_are_data_not_errors() {
    let mut bytes = valid_trace();
    // Both defined flag bits set, max work: legal.
    bytes[MAGIC.len() + 16] = 0b11;
    bytes[MAGIC.len() + 17] = u8::MAX;
    let mut t = TraceFile::from_bytes(&bytes).expect("defined bits are data");
    let r = t.next_record();
    assert!(r.dependent);
    assert_eq!(r.work, u8::MAX);
}

#[test]
fn error_display_is_diagnosable() {
    let full = valid_trace();
    let err = TraceFile::from_bytes(&full[..full.len() - 1]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("record 2") && msg.contains("18 of 19"), "{msg}");
    let err = TraceFile::from_bytes(b"GARBAGE!").unwrap_err();
    assert!(err.to_string().contains("not a PPFT v1 trace"), "{err}");
}

#[test]
fn missing_file_reports_io_error() {
    let err = TraceFile::open(std::path::Path::new("/nonexistent/ppf-no-such-trace"))
        .expect_err("missing file");
    assert!(matches!(err, TraceError::Io(_)), "{err:?}");
    assert!(err.to_string().contains("I/O error"), "{err}");
}

#[test]
fn csv_garbage_yields_line_errors_not_panics() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ppf-fault-csv-{}", std::process::id()));
    for (body, expect) in [
        ("", "line 1"),
        ("totally wrong header\n", "line 1"),
        ("pc,addr,kind,work,dependent\n", "empty trace"),
        ("pc,addr,kind,work,dependent\n0x1,0x2,fly,3,0\n", "line 2"),
        ("pc,addr,kind,work,dependent\n0x1,0x2,load,3\n", "line 2"),
        ("pc,addr,kind,work,dependent\nzzz,0x2,load,3,0\n", "line 2"),
        ("pc,addr,kind,work,dependent\n0x1,0x2,load,999,0\n", "line 2"),
        ("pc,addr,kind,work,dependent\n0x1,0x2,load,3,maybe\n", "line 2"),
        ("pc,addr,kind,work,dependent\n0x1,0x2,load,3,0\nbroken\n", "line 3"),
    ] {
        std::fs::write(&path, body).expect("write");
        let err = load_trace_csv(&path).expect_err(body);
        assert!(err.to_string().contains(expect), "{body:?} -> {err}");
    }
    std::fs::remove_file(&path).ok();
}
