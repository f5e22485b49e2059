//! The `mrl serve` request loop in process: requests come from a byte
//! slice and responses go to a `Vec<u8>`, so no process or socket is
//! needed.

use std::io::BufReader;

use mrl_db::PlacementState;
use mrl_eco::stream::batch_to_line;
use mrl_eco::{serve, EcoConfig, EcoSession, Edit, EditBatch, MAX_LINE_BYTES};
use mrl_legalize::{Legalizer, LegalizerConfig};
use mrl_synth::{generate_witness, WitnessConfig};
use mrl_telemetry::Collect;

fn legalized_session() -> EcoSession {
    let witness = generate_witness(&WitnessConfig::new(31).with_cells(120).with_utilization(0.5))
        .expect("witness");
    let design = witness.design;
    let cfg = LegalizerConfig::default();
    let mut state = PlacementState::new(&design);
    Legalizer::new(cfg.clone())
        .legalize(&design, &mut state)
        .expect("base legalization");
    EcoSession::new(design, state, cfg, EcoConfig::default())
}

/// A one-move request of the session's first movable cell, shifted
/// right by `id % 4` sites, without a newline.
fn move_line(session: &EcoSession, id: u64) -> String {
    let cell = session.design().movable_cells().next().expect("movable");
    let (x, y) = session.design().input_position(cell);
    batch_to_line(&EditBatch {
        id,
        edits: vec![Edit::Move {
            cell,
            x: x + (id % 4) as f64,
            y,
        }],
    })
}

/// `line` padded with trailing spaces to exactly `len` bytes.
fn padded(line: &str, len: usize) -> String {
    format!("{line}{}", " ".repeat(len - line.len()))
}

/// Serves `input` with `--check` on and returns the response lines.
fn serve_lines(session: &mut EcoSession, input: impl std::io::BufRead) -> Vec<String> {
    let mut out = Vec::new();
    serve(session, input, &mut out, true, None).expect("serve");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    assert!(text.is_empty() || text.ends_with('\n'), "{text}");
    text.lines().map(str::to_string).collect()
}

/// The value of one Prometheus series of the session's telemetry.
fn series(session: &EcoSession, name: &str) -> u64 {
    let text = session.telemetry().metrics_text();
    let line = text
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .unwrap_or_else(|| panic!("missing series {name}"));
    line[name.len() + 1..].parse().expect("integer sample")
}

fn assert_applied(response: &str, id: u64) {
    assert!(
        response.contains("\"applied\":true") && response.contains(&format!("\"id\":{id},")),
        "{response}"
    );
}

fn assert_parse_error(response: &str, message: &str) {
    assert!(
        response.starts_with("{\"error\":{\"kind\":\"parse\",\"message\":"),
        "{response}"
    );
    assert!(response.contains(message), "{response}");
    assert!(response.ends_with(",\"id\":null}"), "{response}");
}

#[test]
fn skips_blank_and_comment_lines_and_poison_drains() {
    let mut session = legalized_session();
    let input = format!(
        "\n   \n# a comment\n{}\n\t#poison  \n{}\n",
        move_line(&session, 1),
        move_line(&session, 2)
    );
    assert!(session.telemetry().healthy());
    let responses = serve_lines(&mut session, input.as_bytes());
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert_applied(&responses[0], 1);
    assert_applied(&responses[1], 2);
    assert!(!session.telemetry().healthy(), "#poison must flip health");
    assert_eq!(session.batches_applied(), 2);

    // Every line read is timed; only requests are parsed and answered.
    let phase = |p: &str| {
        series(
            &session,
            &format!("mrl_serve_phase_latency_us_count{{phase=\"{p}\"}}"),
        )
    };
    assert_eq!(phase("read"), 6);
    assert_eq!(phase("parse"), 2);
    assert_eq!(phase("respond"), 2);
}

#[test]
fn malformed_requests_get_structured_errors_and_serving_continues() {
    let mut session = legalized_session();
    let input = format!(
        "not json\n\
         {{\"id\":7,\"edits\":[{{\"op\":\"move\",\"cell\":999999,\"x\":1.0,\"y\":1.0}}]}}\n\
         {}\n",
        move_line(&session, 8)
    );
    let responses = serve_lines(&mut session, input.as_bytes());
    assert_eq!(responses.len(), 3, "{responses:?}");
    assert_parse_error(&responses[0], "");
    assert!(
        responses[1].starts_with("{\"error\":{\"kind\":\"invalid_edit\",\"message\":"),
        "{}",
        responses[1]
    );
    assert!(responses[1].contains("does not exist"), "{}", responses[1]);
    assert!(responses[1].ends_with(",\"id\":7}"), "{}", responses[1]);
    assert_applied(&responses[2], 8);
    assert_eq!(
        series(&session, "mrl_serve_errors_total{reason=\"parse\"}"),
        1
    );
    assert_eq!(
        series(&session, "mrl_serve_errors_total{reason=\"invalid_edit\"}"),
        1
    );
    assert!(session.telemetry().healthy());
}

#[test]
fn non_utf8_and_over_long_lines_are_answered_and_skipped() {
    let mut session = legalized_session();
    let mut input = b"\xff\xfe not utf8\n".to_vec();
    input.extend(format!("{}\n", move_line(&session, 1)).bytes());
    // A request exactly at the limit is served; one byte more is not.
    input.extend(format!("{}\n", padded(&move_line(&session, 2), MAX_LINE_BYTES)).bytes());
    input.extend(format!("{}\n", padded(&move_line(&session, 3), MAX_LINE_BYTES + 1)).bytes());
    input.extend(format!("{}\n", move_line(&session, 4)).bytes());
    // An over-long last line without a newline.
    input.extend(padded(&move_line(&session, 5), 3 * MAX_LINE_BYTES).bytes());

    let responses = serve_lines(&mut session, &input[..]);
    assert_eq!(responses.len(), 6, "{responses:?}");
    assert_parse_error(&responses[0], "request line is not UTF-8");
    assert_applied(&responses[1], 1);
    assert_applied(&responses[2], 2);
    let too_long = format!("request line longer than {MAX_LINE_BYTES} bytes");
    assert_parse_error(&responses[3], &too_long);
    assert_applied(&responses[4], 4);
    assert_parse_error(&responses[5], &too_long);
    assert_eq!(session.batches_applied(), 3);
    assert_eq!(
        series(&session, "mrl_serve_errors_total{reason=\"parse\"}"),
        3
    );
}

#[test]
fn line_framing_survives_one_byte_reads() {
    const KEY: &str = ",\"wall_us\":";
    let strip_wall_us = |line: &str| match line.find(KEY) {
        Some(at) => {
            let value = at + KEY.len();
            let digits = line[value..].bytes().take_while(u8::is_ascii_digit).count();
            format!("{}{}", &line[..at], &line[value + digits..])
        }
        None => line.to_string(),
    };
    let template = legalized_session();
    let mut input = Vec::new();
    for id in 0..6 {
        input.extend(format!("# request {id}\n{}\r\n\n", move_line(&template, id)).bytes());
    }
    input.extend(b"garbage\n\xc3\x28\n#poison\n");
    input.extend(format!("{}\n", padded(&move_line(&template, 6), 2 * MAX_LINE_BYTES)).bytes());
    input.extend(format!("  {}", move_line(&template, 7)).bytes());

    let mut whole = legalized_session();
    let mut trickled = legalized_session();
    let a = serve_lines(&mut whole, &input[..]);
    let b = serve_lines(&mut trickled, BufReader::with_capacity(1, &input[..]));
    assert_eq!(a.len(), 10, "{a:?}");
    let a: Vec<String> = a.iter().map(|l| strip_wall_us(l)).collect();
    let b: Vec<String> = b.iter().map(|l| strip_wall_us(l)).collect();
    assert_eq!(a, b);
    assert!(a.iter().all(|l| !l.contains("wall_us")), "{a:?}");
    assert_eq!(whole.batches_applied(), 7);
}
