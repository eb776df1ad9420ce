//! The output check. A sim run passes when its answer and channel bytes
//! equal closed forms computed from the generated inputs and its
//! simulated statistics equal those of the interpreted per-event
//! reference tier on the same inputs. A served statement passes when its
//! reply frames equal what an in-process session on a fresh hub returns
//! for the same connection's sequence.

use scsq_core::{
    Frame, FrameKind, QueryResult, ScsqError as EngineError, SessionReply, SimTime, Value,
};

/// Bytes one element adds to a stream beyond its payload: a one-byte
/// type tag plus an eight-byte length or value.
pub const ELEMENT_HEADER: u64 = 9;

/// The simulated statistics of one run that every execution tier must
/// reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Print {
    pub values: Vec<Value>,
    pub finished: SimTime,
    pub channels: Vec<ChannelPrint>,
    /// The figure's y value for this run (bandwidth or simulated time).
    pub y: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ChannelPrint {
    pub bytes: u64,
    pub bytes_enqueued: u64,
    pub last_delivery: SimTime,
    pub elements_lost: u64,
    pub buffers_dropped: u64,
}

impl Print {
    pub fn of(result: &QueryResult, y: f64) -> Print {
        Print {
            values: result.values().to_vec(),
            finished: result.finished(),
            channels: result
                .stats()
                .channels
                .iter()
                .map(|c| ChannelPrint {
                    bytes: c.bytes,
                    bytes_enqueued: c.bytes_enqueued,
                    last_delivery: c.last_delivery,
                    elements_lost: c.elements_lost,
                    buffers_dropped: c.buffers_dropped,
                })
                .collect(),
            y,
        }
    }
}

/// What a run must produce, worked out from the generated inputs alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    pub answer: Vec<Value>,
    /// Bytes delivered per channel, sorted.
    pub channel_bytes: Vec<u64>,
}

pub fn check_closed_form(expect: &Expect, got: &Print) -> Result<(), String> {
    if got.values != expect.answer {
        return Err(format!(
            "answer {:?}, closed form {:?}",
            got.values, expect.answer
        ));
    }
    let mut bytes: Vec<u64> = got.channels.iter().map(|c| c.bytes).collect();
    bytes.sort_unstable();
    if bytes != expect.channel_bytes {
        return Err(format!(
            "channel bytes {bytes:?}, generated {:?}",
            expect.channel_bytes
        ));
    }
    if let Some(c) = got
        .channels
        .iter()
        .find(|c| c.elements_lost > 0 || c.buffers_dropped > 0 || c.bytes != c.bytes_enqueued)
    {
        return Err(format!("channel lost data: {c:?}"));
    }
    Ok(())
}

pub fn check_reference(got: &Print, reference: &Print) -> Result<(), String> {
    if got.values != reference.values {
        return Err(format!(
            "values {:?} vs reference {:?}",
            got.values, reference.values
        ));
    }
    if got.finished != reference.finished {
        return Err(format!(
            "finish {} vs reference {}",
            got.finished, reference.finished
        ));
    }
    if got.channels != reference.channels {
        return Err(format!(
            "channels {:?} vs reference {:?}",
            got.channels, reference.channels
        ));
    }
    if got.y.to_bits() != reference.y.to_bits() {
        return Err(format!("y {} vs reference {}", got.y, reference.y));
    }
    Ok(())
}

/// Mean and sample standard deviation of one figure point's
/// repetitions.
pub fn figure_point(ys: &[f64]) -> (f64, f64) {
    let n = ys.len() as f64;
    let mean = ys.iter().sum::<f64>() / n;
    let var = if ys.len() > 1 {
        ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, var.sqrt())
}

pub fn check_figure(got: (f64, f64), reference: (f64, f64)) -> Result<(), String> {
    if got.0.to_bits() != reference.0.to_bits() || got.1.to_bits() != reference.1.to_bits() {
        return Err(format!(
            "figure point (y {}, sd {}) vs reference (y {}, sd {})",
            got.0, got.1, reference.0, reference.1
        ));
    }
    Ok(())
}

/// The frames `scsqd` sends for a statement whose in-process reply is
/// `reply`.
pub fn expected_frames(reply: &Result<SessionReply, EngineError>) -> Vec<Frame> {
    let frame = |kind, payload: String| Frame { kind, payload };
    match reply {
        Ok(reply) => reply
            .rows()
            .into_iter()
            .map(|row| frame(FrameKind::Row, row))
            .chain(std::iter::once(frame(FrameKind::Ok, reply.summary())))
            .collect(),
        Err(e) => vec![frame(FrameKind::Err, e.to_string())],
    }
}

pub fn check_reply(got: &[Frame], want: &[Frame]) -> Result<(), String> {
    if got != want {
        return Err(format!("reply {got:?}, in-process session {want:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn print() -> Print {
        Print {
            values: vec![Value::Integer(100)],
            finished: SimTime::from_nanos(2_572_739_000),
            channels: vec![
                ChannelPrint {
                    bytes: 300_000_900,
                    bytes_enqueued: 300_000_900,
                    last_delivery: SimTime::from_nanos(2_572_000_000),
                    elements_lost: 0,
                    buffers_dropped: 0,
                },
                ChannelPrint {
                    bytes: 9,
                    bytes_enqueued: 9,
                    last_delivery: SimTime::from_nanos(2_572_739_000),
                    elements_lost: 0,
                    buffers_dropped: 0,
                },
            ],
            y: 116.6,
        }
    }

    fn expect() -> Expect {
        Expect {
            answer: vec![Value::Integer(100)],
            channel_bytes: vec![9, 300_000_900],
        }
    }

    #[test]
    fn a_matching_run_passes() {
        assert_eq!(check_closed_form(&expect(), &print()), Ok(()));
        assert_eq!(check_reference(&print(), &print()), Ok(()));
    }

    #[test]
    fn a_wrong_answer_fails() {
        let mut got = print();
        got.values = vec![Value::Integer(99)];
        assert!(check_closed_form(&expect(), &got).is_err());
        assert!(check_reference(&got, &print()).is_err());
    }

    #[test]
    fn missing_or_lost_bytes_fail() {
        let mut got = print();
        got.channels[0].bytes -= 9;
        assert!(check_closed_form(&expect(), &got).is_err());
        let mut got = print();
        got.channels[0].elements_lost = 1;
        assert!(check_closed_form(&expect(), &got).is_err());
    }

    #[test]
    fn a_perturbed_simulated_statistic_fails() {
        let reference = print();
        let mut got = print();
        got.finished = SimTime::from_nanos(got.finished.as_nanos() + 1);
        assert!(check_reference(&got, &reference).is_err());
        let mut got = print();
        got.channels[1].last_delivery = SimTime::from_nanos(1);
        assert!(check_reference(&got, &reference).is_err());
        let mut got = print();
        got.y = f64::from_bits(got.y.to_bits() + 1);
        assert!(check_reference(&got, &reference).is_err());
        let (y, sd) = figure_point(&[1.0, 2.0, 3.0]);
        assert_eq!((y, sd), (2.0, 1.0));
        assert!(check_figure((y, sd + 1e-12), (y, sd)).is_err());
    }

    #[test]
    fn a_mismatched_reply_fails() {
        let want = vec![
            Frame {
                kind: FrameKind::Row,
                payload: "4".into(),
            },
            Frame {
                kind: FrameKind::Ok,
                payload: "-- 1 value in 1.35ms".into(),
            },
        ];
        assert_eq!(check_reply(&want, &want), Ok(()));
        let mut got = want.clone();
        got[0].payload = "5".into();
        assert!(check_reply(&got, &want).is_err());
        assert!(check_reply(&want[1..], &want).is_err());
    }
}
