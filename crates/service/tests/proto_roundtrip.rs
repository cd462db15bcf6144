//! Wire-protocol properties.
//!
//! 1. **Roundtrip:** `decode(encode(m)) == m` for arbitrary requests and
//!    responses, including deeply structured queries — the wire format
//!    loses nothing.
//! 2. **Never panics:** the decoder survives arbitrary byte soup —
//!    truncated, oversized, and garbage frames all come back as typed
//!    [`ProtoError`]s, never as panics or bad allocations.
//!
//! The vendored proptest subset has no recursive strategies, so
//! structured values are *derived* from drawn byte scripts: the script
//! is the entropy, plain code turns it into a `Query`/`Response`
//! deterministically.

use proptest::prelude::*;
use rqo_core::{ConfidenceThreshold, PlanSelection};
use rqo_exec::{AggExpr, AggFunc};
use rqo_expr::{BinaryOp, Expr, UnaryOp};
use rqo_optimizer::Query;
use rqo_service::proto::{
    read_frame, write_frame, FrameReadError, ProtoError, Request, Response, RunMode, MAX_FRAME_LEN,
};
use rqo_storage::Value;

/// A draw source over a finite byte script: deterministic, total (runs
/// dry into zeros), and cheap.
struct Script<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Script<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Script { bytes, pos: 0 }
    }
    fn byte(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }
    fn small(&mut self, bound: u8) -> u8 {
        self.byte() % bound.max(1)
    }
    fn i64(&mut self) -> i64 {
        let mut v = [0u8; 8];
        for slot in &mut v {
            *slot = self.byte();
        }
        i64::from_le_bytes(v)
    }
    fn string(&mut self) -> String {
        let len = self.small(9) as usize;
        (0..len)
            .map(|_| char::from(b'a' + self.small(26)))
            .collect()
    }
}

fn value_from(s: &mut Script) -> Value {
    match s.small(6) {
        0 => Value::Null,
        1 => Value::Int(s.i64()),
        2 => Value::Float(f64::from_bits(s.i64() as u64 & 0x7FEF_FFFF_FFFF_FFFF)),
        3 => Value::Date(s.i64() as i32),
        4 => Value::str(s.string()),
        _ => Value::Bool(s.byte() & 1 == 1),
    }
}

fn expr_from(s: &mut Script, depth: usize) -> Expr {
    // Leaves become more likely as depth grows; hard floor at 8 so the
    // tree stays inside the decoder's depth limit with margin.
    let leafy = depth >= 8 || s.small(4) == 0;
    if leafy {
        return match s.small(3) {
            0 => Expr::Col(s.string()),
            1 => Expr::ColIdx(s.small(16) as usize, s.string()),
            _ => Expr::Lit(value_from(s)),
        };
    }
    match s.small(5) {
        0 => Expr::Binary {
            op: match s.small(12) {
                0 => BinaryOp::Eq,
                1 => BinaryOp::Ne,
                2 => BinaryOp::Lt,
                3 => BinaryOp::Le,
                4 => BinaryOp::Gt,
                5 => BinaryOp::Ge,
                6 => BinaryOp::And,
                7 => BinaryOp::Or,
                8 => BinaryOp::Add,
                9 => BinaryOp::Sub,
                10 => BinaryOp::Mul,
                _ => BinaryOp::Div,
            },
            left: Box::new(expr_from(s, depth + 1)),
            right: Box::new(expr_from(s, depth + 1)),
        },
        1 => Expr::Unary {
            op: match s.small(3) {
                0 => UnaryOp::Not,
                1 => UnaryOp::Neg,
                _ => UnaryOp::IsNull,
            },
            expr: Box::new(expr_from(s, depth + 1)),
        },
        2 => Expr::Between {
            expr: Box::new(expr_from(s, depth + 1)),
            lo: Box::new(expr_from(s, depth + 1)),
            hi: Box::new(expr_from(s, depth + 1)),
        },
        3 => Expr::Like {
            expr: Box::new(expr_from(s, depth + 1)),
            pattern: s.string(),
        },
        _ => Expr::InList {
            expr: Box::new(expr_from(s, depth + 1)),
            list: {
                let n = s.small(4) as usize;
                (0..n).map(|_| value_from(s)).collect()
            },
        },
    }
}

fn query_from(s: &mut Script) -> Query {
    let n_tables = 1 + s.small(3) as usize;
    let tables: Vec<String> = (0..n_tables)
        .map(|i| format!("t{i}_{}", s.string()))
        .collect();
    let n_preds = s.small(3) as usize;
    let predicates = (0..n_preds)
        .map(|_| {
            let t = tables[s.small(n_tables as u8) as usize].clone();
            (t, expr_from(s, 0))
        })
        .collect();
    let n_group = s.small(3) as usize;
    let group_by = (0..n_group).map(|_| s.string()).collect();
    let n_aggs = s.small(3) as usize;
    let aggregates = (0..n_aggs)
        .map(|_| {
            let func = match s.small(5) {
                0 => AggFunc::Sum,
                1 => AggFunc::Count,
                2 => AggFunc::Avg,
                3 => AggFunc::Min,
                _ => AggFunc::Max,
            };
            let column = if func == AggFunc::Count && s.byte() & 1 == 0 {
                None
            } else {
                Some(s.string())
            };
            AggExpr {
                func,
                column,
                alias: s.string(),
            }
        })
        .collect();
    let hint = match s.small(3) {
        0 => None,
        _ => Some(ConfidenceThreshold::new((1.0 + s.small(98) as f64) / 100.0)),
    };
    let selection = match s.small(3) {
        0 => None,
        1 => Some(PlanSelection::Quantile),
        _ => Some(PlanSelection::ExpectedPenalty),
    };
    Query {
        tables,
        predicates,
        group_by,
        aggregates,
        hint,
        selection,
    }
}

fn request_from(s: &mut Script) -> Request {
    match s.small(3) {
        0 => Request::Ping {
            nonce: s.i64() as u64,
        },
        1 => Request::Insert {
            id: s.i64() as u64,
            // Decode rejects empty table names, so force a prefix.
            table: format!("t{}", s.string()),
            rows: {
                let n = s.small(4) as usize;
                let width = s.small(4) as usize;
                (0..n)
                    .map(|_| (0..width).map(|_| value_from(s)).collect())
                    .collect()
            },
        },
        _ => Request::Run {
            id: s.i64() as u64,
            mode: if s.byte() & 1 == 0 {
                RunMode::Run
            } else {
                RunMode::Adaptive
            },
            deadline_ms: (s.i64() as u64) % 100_000,
            query: query_from(s),
        },
    }
}

fn response_from(s: &mut Script) -> Response {
    match s.small(5) {
        0 => Response::Batch {
            id: s.i64() as u64,
            rows: {
                let n = s.small(4) as usize;
                let width = s.small(4) as usize;
                (0..n)
                    .map(|_| (0..width).map(|_| value_from(s)).collect())
                    .collect()
            },
        },
        1 => Response::Done {
            id: s.i64() as u64,
            columns: {
                let n = s.small(4) as usize;
                (0..n).map(|_| s.string()).collect()
            },
            total_rows: s.i64() as u64,
            simulated_seconds: s.small(100) as f64 / 7.0,
            estimated_seconds: s.small(100) as f64 / 3.0,
            replans: s.small(4) as u64,
        },
        2 => Response::Error {
            id: s.i64() as u64,
            code: rqo_service::proto::ErrorCode::Protocol,
            message: s.string(),
        },
        3 => Response::InsertOk {
            id: s.i64() as u64,
            rows_inserted: s.small(100) as u64,
            table_rows: s.i64() as u64,
        },
        _ => Response::Pong {
            nonce: s.i64() as u64,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Requests roundtrip bit-exactly, including full query specs.
    #[test]
    fn request_roundtrips(script in proptest::collection::vec(any::<u8>(), 0..256)) {
        let req = request_from(&mut Script::new(&script));
        let body = req.encode();
        let back = Request::decode(&body).expect("own encoding decodes");
        prop_assert_eq!(back, req);
    }

    /// Responses roundtrip bit-exactly.
    #[test]
    fn response_roundtrips(script in proptest::collection::vec(any::<u8>(), 0..256)) {
        let resp = response_from(&mut Script::new(&script));
        let body = resp.encode();
        let back = Response::decode(&body).expect("own encoding decodes");
        prop_assert_eq!(back, resp);
    }

    /// Arbitrary byte soup never panics the decoders: every outcome is
    /// `Ok` or a typed `ProtoError`.
    #[test]
    fn garbage_never_panics_decoders(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::decode(&body);
        let _ = Response::decode(&body);
    }

    /// Truncating a valid frame at every prefix yields a typed error,
    /// not a panic (or, for a frame-boundary cut, a clean EOF).
    #[test]
    fn truncated_frames_are_typed(script in proptest::collection::vec(any::<u8>(), 0..256),
                                  cut_seed in any::<u16>()) {
        let req = request_from(&mut Script::new(&script));
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let cut = cut_seed as usize % wire.len();
        let mut cursor = std::io::Cursor::new(&wire[..cut]);
        match read_frame(&mut cursor) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only at the boundary"),
            Ok(Some(body)) => {
                // The length prefix survived and the cut happened to
                // cover the whole body — then it must decode.
                prop_assert_eq!(Request::decode(&body).unwrap(), req);
            }
            Err(FrameReadError::Proto(ProtoError::Truncated)) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// Corrupting a single byte of a valid frame never panics the frame
    /// reader or the decoder.
    #[test]
    fn bit_flips_never_panic(script in proptest::collection::vec(any::<u8>(), 0..256),
                             at_seed in any::<u16>(), xor in 1u8..=255) {
        let req = request_from(&mut Script::new(&script));
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let at = at_seed as usize % wire.len();
        wire[at] ^= xor;
        let mut cursor = std::io::Cursor::new(wire.as_slice());
        if let Ok(Some(body)) = read_frame(&mut cursor) {
            let _ = Request::decode(&body);
        }
    }
}

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    // A 4 GiB length claim must come back as Oversized without the
    // reader ever trying to allocate the buffer.
    let mut wire = Vec::new();
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    wire.extend_from_slice(&[0u8; 64]);
    let mut cursor = std::io::Cursor::new(wire);
    match read_frame(&mut cursor) {
        Err(FrameReadError::Proto(ProtoError::Oversized(n))) => {
            assert!(n > MAX_FRAME_LEN);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}
