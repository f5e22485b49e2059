//! The one request loop behind `mrl serve`, over any [`BufRead`]/[`Write`]
//! pair: stdin, a scripted file or a TCP connection.

use std::io::{self, BufRead, Read, Write};
use std::sync::Arc;
use std::time::Instant;

use mrl_bench::json::Json;
use mrl_metrics::Violation;

use crate::session::elapsed_us;
use crate::{stream, EcoError, EcoSession};

/// Longest request line [`serve`] reads, in bytes, newline not counted. A
/// longer line gets a parse error, and the rest of it is skipped without
/// being buffered.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Why [`serve`] stopped before the end of its input.
#[derive(Debug)]
pub enum ServeError {
    /// Reading a request or writing a response failed.
    Io(io::Error),
    /// With `check` on, the placement was illegal after this batch.
    Illegal(u64, Vec<Violation>),
    /// This batch failed inside the session (not as an invalid edit).
    Internal(u64, EcoError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
            ServeError::Illegal(id, found) => {
                write!(f, "request {id}: placement illegal after batch: {found:?}")
            }
            ServeError::Internal(id, e) => write!(f, "request {id}: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The structured error response: a `kind` from a closed set (`"parse"`,
/// `"invalid_edit"`), a message, and the request id if one was parsed.
fn error_line(kind: &str, message: &str, id: Option<u64>) -> String {
    let mut err = Json::obj();
    err.set("kind", kind).set("message", message);
    let mut j = Json::obj();
    j.set("error", err)
        .set("id", id.map_or(Json::Null, Json::from));
    j.compact()
}

/// Answers the NDJSON requests of `input` on `output` until `input` ends.
///
/// Lines are trimmed; blank and `#` lines are skipped, and `#poison` marks
/// the session unhealthy (the drain hook) while serving goes on. Every
/// other line gets one response line: the batch's stats, or
/// `{"error":{"kind":"parse"|"invalid_edit",...},"id":...}` for a line
/// that is not UTF-8, is longer than [`MAX_LINE_BYTES`], is not a request,
/// or names an edit the session refuses. With `check` on, each committed
/// batch is re-verified by [`EcoSession::check_legal`].
///
/// A response and its newline leave in one `write_all`. Over TCP, set
/// `TCP_NODELAY` as well: otherwise a response waits for the ACK of the
/// one before, which the client holds back for its delayed-ACK timer
/// (about 40 ms on Linux).
///
/// Read, parse and respond times and parse errors go to the session's
/// telemetry, and a stats line goes to stderr every `stats_every`
/// responses.
///
/// # Errors
///
/// I/O errors, a `check` violation, and any [`EcoError`] but an invalid
/// edit.
pub fn serve(
    session: &mut EcoSession,
    mut input: impl BufRead,
    mut output: impl Write,
    check: bool,
    stats_every: Option<u64>,
) -> Result<(), ServeError> {
    let telemetry = Arc::clone(session.telemetry());
    let (mut buf, mut responses) = (Vec::new(), 0u64);
    loop {
        let read_t = Instant::now();
        buf.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        let read = Read::take(&mut input, limit).read_until(b'\n', &mut buf);
        if read.map_err(ServeError::Io)? == 0 {
            break;
        }
        let bytes = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let too_long = bytes.len() > MAX_LINE_BYTES;
        if too_long {
            input.skip_until(b'\n').map_err(ServeError::Io)?;
        }
        telemetry.phase_read.observe(elapsed_us(read_t));

        let parse_t = Instant::now();
        let line = if too_long {
            Err(format!("request line longer than {MAX_LINE_BYTES} bytes"))
        } else {
            std::str::from_utf8(bytes)
                .map(str::trim)
                .map_err(|e| format!("request line is not UTF-8: {e}"))
        };
        if let Ok(text) = line {
            if text.is_empty() || text.starts_with('#') {
                if text == "#poison" {
                    telemetry.poison();
                }
                continue;
            }
        }
        let parsed = line.and_then(stream::parse_batch_line);
        telemetry.phase_parse.observe(elapsed_us(parse_t));

        let mut response = match parsed.map(|batch| (batch.id, session.apply_batch(&batch))) {
            Err(message) => {
                telemetry.errors_parse.inc();
                error_line("parse", &message, None)
            }
            Ok((id, Ok(stats))) => {
                if check {
                    session
                        .check_legal()
                        .map_err(|v| ServeError::Illegal(id, v))?;
                }
                stream::stats_to_line(&stats, true)
            }
            Ok((_, Err(EcoError::InvalidEdit { request, message }))) => {
                error_line("invalid_edit", &message, Some(request))
            }
            Ok((id, Err(e))) => return Err(ServeError::Internal(id, e)),
        };
        response.push('\n');
        let respond_t = Instant::now();
        output
            .write_all(response.as_bytes())
            .map_err(ServeError::Io)?;
        telemetry.phase_respond.observe(elapsed_us(respond_t));
        responses += 1;
        if stats_every.is_some_and(|n| responses.is_multiple_of(n)) {
            eprintln!("{}", telemetry.stats_line("stats"));
        }
    }
    Ok(())
}
