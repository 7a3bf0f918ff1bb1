//! Protocol-frame fuzzing: the frame codec and a live TCP service must
//! survive arbitrary bytes.
//!
//! Two levels:
//!
//! * **Codec level** — `read_frame`, `Json::parse`, and
//!   `JoinRequest::from_json` are fed the raw bytes directly; any escaped
//!   panic is a violation (errors are the expected currency here).
//! * **Service level** — the bytes are written to a real
//!   `skewjoind` socket. The contract is *reply-or-close*: within the
//!   timeout the server must either send back a parseable frame or close
//!   the connection. Hanging the reader, crashing the accept loop, or
//!   replying with bytes its own codec cannot parse are violations.
//!
//! A case may also pin the error it must provoke ([`FrameCase`]'s
//! `expect_error`): then request parsing must fail with that text, and the
//! server's reply must be a `failed` response carrying it.

use std::io::{Cursor, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use skewjoin::cpu::CpuJoinConfig;
use skewjoin_service::{
    protocol, JoinRequest, JoinResponse, JoinService, Outcome, ServerHandle, ServiceConfig,
};

use super::FrameCase;

/// How long the service gets to reply or close before the case counts as a
/// hang. Generated join payloads are capped small, so this is generous.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// A live `skewjoind` instance shared by every frame case of a run.
pub struct FrameHarness {
    service: Arc<JoinService>,
    handle: Option<ServerHandle>,
}

impl FrameHarness {
    /// Starts a small service on a loopback port.
    pub fn start() -> std::io::Result<FrameHarness> {
        let mut cfg = ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            ..ServiceConfig::default()
        };
        cfg.join_config.cpu = CpuJoinConfig::with_threads(2);
        let service = JoinService::start(cfg);
        let handle = protocol::serve(service.clone(), "127.0.0.1:0")?;
        Ok(FrameHarness {
            service,
            handle: Some(handle),
        })
    }

    /// The address frame cases should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("server running").addr()
    }
}

impl Drop for FrameHarness {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
        self.service.shutdown();
    }
}

/// Codec-level check: none of the parsing layers may panic on these bytes,
/// no matter how malformed, and request parsing must fail naming
/// `expect_error` when one is given. Returns `Some(details)` on violation.
pub fn check_codec(bytes: &[u8], expect_error: Option<&str>) -> Option<String> {
    let bytes = bytes.to_vec();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // The frame reader over the exact bytes.
        let mut cursor = Cursor::new(&bytes[..]);
        let parsed = protocol::read_frame(&mut cursor).map(|json| {
            // A frame that decodes must survive request parsing too.
            let _ = JoinResponse::from_json(&json);
            JoinRequest::from_json(&json, "skewfuzz")
        });
        let verdict = expect_error.and_then(|expected| match parsed {
            Ok(Err(e)) if e.contains(expected) => None,
            Ok(Err(e)) => Some(format!("request error {e:?} does not name {expected:?}")),
            Ok(Ok(_)) => Some(format!(
                "request parsed; expected an error naming {expected:?}"
            )),
            Err(e) => Some(format!("frame unreadable ({e}); expected {expected:?}")),
        });
        // The JSON parser over the body alone (skipping the prefix), which
        // exercises it on truncated/garbage text the framing would refuse.
        if bytes.len() > 4 {
            if let Ok(body) = std::str::from_utf8(&bytes[4..]) {
                let _ = skewjoin::common::json::Json::parse(body);
            }
        }
        verdict
    }));
    match outcome {
        Ok(verdict) => verdict,
        Err(payload) => Some(format!(
            "frame codec panicked: {}",
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".into())
        )),
    }
}

/// Service-level check: write the bytes to a live server and demand
/// reply-or-close within [`REPLY_TIMEOUT`] — or, with `expect_error`, a
/// `failed` reply whose error contains it. Returns `Some(details)` on
/// violation.
pub fn check_service(addr: SocketAddr, bytes: &[u8], expect_error: Option<&str>) -> Option<String> {
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return Some(format!("connect failed: {e}")),
    };
    let _ = stream.set_read_timeout(Some(REPLY_TIMEOUT));
    let _ = stream.set_write_timeout(Some(REPLY_TIMEOUT));
    // The server may close mid-write (e.g. on an oversized declared
    // length); write errors are part of the contract, not violations.
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    // Half-close so a server waiting on a truncated frame sees EOF.
    let _ = stream.shutdown(Shutdown::Write);
    let reply = protocol::read_frame(&mut stream);
    if let Some(expected) = expect_error {
        return match reply.as_ref().map(JoinResponse::from_json) {
            Ok(Ok(JoinResponse {
                outcome: Outcome::Failed { error },
                ..
            })) if error.contains(expected) => None,
            Ok(other) => Some(format!(
                "expected a failed reply naming {expected:?}, got {other:?}"
            )),
            Err(e) => Some(format!(
                "expected a failed reply naming {expected:?}, got no reply: {e}"
            )),
        };
    }
    match reply {
        Ok(json) => {
            // Whatever came back must be coherent: join-style replies (any
            // frame carrying an "outcome") must parse as a JoinResponse;
            // ping/metrics replies are plain objects and just need to have
            // decoded, which `read_frame` already guaranteed.
            if json.get("outcome").is_some() {
                if let Err(e) = JoinResponse::from_json(&json) {
                    return Some(format!("unparseable response frame: {e} in {json}"));
                }
            }
            None
        }
        Err(e) => match e.kind() {
            // Clean close (or the reset a close can race into) is fine.
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => None,
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => Some(format!(
                "service neither replied nor closed within {REPLY_TIMEOUT:?}"
            )),
            // InvalidData here means the server replied with a frame its
            // own codec refuses — a server-side bug.
            _ => Some(format!("response unreadable: {e}")),
        },
    }
}

/// Runs one frame case through the codec check and (when a harness is up)
/// the live service check.
pub fn check_frame(case: &FrameCase, harness: Option<&FrameHarness>) -> Option<String> {
    let expect_error = case.expect_error.as_deref();
    if let Some(v) = check_codec(&case.bytes, expect_error) {
        return Some(v);
    }
    if let Some(h) = harness {
        if let Some(v) = check_service(h.addr(), &case.bytes, expect_error) {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin::datagen::Rng;

    #[test]
    fn codec_survives_structured_garbage() {
        let mut rng = Rng::seed_from_u64(23);
        for i in 0..200 {
            let case = super::super::gen::gen_frame_case(&mut rng, 23, i);
            assert_eq!(
                check_codec(&case.bytes, case.expect_error.as_deref()),
                None,
                "case {}",
                case.name
            );
        }
    }

    #[test]
    fn generated_shard_tasks_complete() {
        let harness = FrameHarness::start().expect("loopback bind");
        let mut rng = Rng::seed_from_u64(31);
        let mut seen = 0;
        for i in 0..240 {
            let case = super::super::gen::gen_frame_case(&mut rng, 31, i);
            if !case.name.ends_with("-shard-join") {
                continue;
            }
            seen += 1;
            let mut stream = TcpStream::connect(harness.addr()).unwrap();
            stream.write_all(&case.bytes).unwrap();
            let reply = protocol::read_frame(&mut stream).unwrap();
            let outcome = JoinResponse::from_json(&reply).unwrap().outcome;
            assert!(
                matches!(outcome, Outcome::Completed(_)),
                "{}: {outcome:?}",
                case.name
            );
        }
        assert!(seen > 0, "no shard_join frame in 240 cases");
    }

    #[test]
    fn live_service_honors_reply_or_close_on_edge_frames() {
        let harness = FrameHarness::start().expect("loopback bind");
        // Zero-length frame: empty body is invalid JSON → protocol error
        // reply, not a hang.
        assert_eq!(check_service(harness.addr(), &[0, 0, 0, 0], None), None);
        // Oversized declared length → refusal without a giant allocation.
        let mut oversized = (protocol::MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        oversized.push(b'x');
        assert_eq!(check_service(harness.addr(), &oversized, None), None);
        // Truncated frame then close → server must just drop it.
        assert_eq!(
            check_service(harness.addr(), &[0, 0, 0, 50, b'{'], None),
            None
        );
    }
}
