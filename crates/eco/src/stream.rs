//! NDJSON wire format for edit streams and per-batch responses.
//!
//! One request per line: `{"id":N,"edits":[...]}` with edit objects
//! `{"op":"move","cell":N,"x":F,"y":F}`, `{"op":"resize","cell":N,"w":W}`,
//! `{"op":"insert","name":"s","w":W,"h":H,"rail":"vdd"|"vss","x":F,"y":F}`,
//! `{"op":"delete","cell":N}`. Responses serialize [`BatchStats`] the same
//! way. Emission goes through [`Json::compact`] (single line, sorted keys)
//! so streams and responses are byte-stable — the corpus format test and
//! ddmin shrinking rely on that.

use crate::{BatchStats, Edit, EditBatch};
use mrl_bench::json::Json;
use mrl_db::CellId;
use mrl_geom::PowerRail;

/// Serializes one edit as a JSON object.
fn edit_to_json(edit: &Edit) -> Json {
    let mut j = Json::obj();
    match edit {
        Edit::Move { cell, x, y } => {
            j.set("op", "move")
                .set("cell", cell.index())
                .set("x", *x)
                .set("y", *y);
        }
        Edit::Resize { cell, width } => {
            j.set("op", "resize")
                .set("cell", cell.index())
                .set("w", *width);
        }
        Edit::Insert {
            name,
            width,
            height,
            rail,
            x,
            y,
        } => {
            j.set("op", "insert")
                .set("name", name.as_str())
                .set("w", *width)
                .set("h", *height)
                .set(
                    "rail",
                    match rail {
                        PowerRail::Vdd => "vdd",
                        PowerRail::Vss => "vss",
                    },
                )
                .set("x", *x)
                .set("y", *y);
        }
        Edit::Delete { cell } => {
            j.set("op", "delete").set("cell", cell.index());
        }
    }
    j
}

fn get_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    match j.get(key) {
        Some(Json::Str(s)) => Ok(s),
        other => Err(format!("field `{key}`: expected string, got {other:?}")),
    }
}

fn get_f64(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("field `{key}`: expected number"))
}

fn get_int(j: &Json, key: &str) -> Result<i64, String> {
    match j.get(key) {
        Some(Json::Int(n)) => Ok(*n),
        other => Err(format!("field `{key}`: expected integer, got {other:?}")),
    }
}

fn get_cell(j: &Json) -> Result<CellId, String> {
    let n = get_int(j, "cell")?;
    usize::try_from(n)
        .map(CellId::from_usize)
        .map_err(|_| format!("field `cell`: {n} is not a valid index"))
}

fn get_width(j: &Json, key: &str) -> Result<i32, String> {
    let n = get_int(j, key)?;
    i32::try_from(n).map_err(|_| format!("field `{key}`: {n} out of range"))
}

/// Parses one edit object.
fn edit_from_json(j: &Json) -> Result<Edit, String> {
    match get_str(j, "op")? {
        "move" => Ok(Edit::Move {
            cell: get_cell(j)?,
            x: get_f64(j, "x")?,
            y: get_f64(j, "y")?,
        }),
        "resize" => Ok(Edit::Resize {
            cell: get_cell(j)?,
            width: get_width(j, "w")?,
        }),
        "insert" => Ok(Edit::Insert {
            name: get_str(j, "name")?.to_string(),
            width: get_width(j, "w")?,
            height: get_width(j, "h")?,
            rail: match get_str(j, "rail")? {
                "vdd" => PowerRail::Vdd,
                "vss" => PowerRail::Vss,
                other => return Err(format!("field `rail`: unknown polarity `{other}`")),
            },
            x: get_f64(j, "x")?,
            y: get_f64(j, "y")?,
        }),
        "delete" => Ok(Edit::Delete { cell: get_cell(j)? }),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Serializes a batch as one compact NDJSON line,
/// `{"edits":[...],"id":N}`, without a trailing newline.
pub fn batch_to_line(batch: &EditBatch) -> String {
    let mut j = Json::obj();
    j.set("id", batch.id).set(
        "edits",
        Json::Arr(batch.edits.iter().map(edit_to_json).collect()),
    );
    j.compact()
}

/// Parses one NDJSON request line.
///
/// # Errors
///
/// JSON syntax errors, or a message naming the malformed field.
pub fn parse_batch_line(line: &str) -> Result<EditBatch, String> {
    let j = Json::parse(line)?;
    let id = get_int(&j, "id")?;
    let id = u64::try_from(id).map_err(|_| format!("field `id`: {id} must be non-negative"))?;
    let edits = match j.get("edits") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(edit_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        other => return Err(format!("field `edits`: expected array, got {other:?}")),
    };
    Ok(EditBatch { id, edits })
}

/// Serializes a whole stream as NDJSON (one batch per line, trailing
/// newline).
pub fn stream_to_ndjson(batches: &[EditBatch]) -> String {
    let mut out = String::new();
    for b in batches {
        out.push_str(&batch_to_line(b));
        out.push('\n');
    }
    out
}

/// Parses an NDJSON stream; blank lines and `#` comment lines are skipped.
///
/// # Errors
///
/// The first malformed line's error, prefixed with its 1-based line number.
pub fn parse_stream(text: &str) -> Result<Vec<EditBatch>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_batch_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Serializes per-batch stats as one compact NDJSON response line.
/// `with_timing` controls the `wall_us` field: serving responses include
/// it, byte-stability tests and corpus fixtures leave it out.
pub fn stats_to_line(stats: &BatchStats, with_timing: bool) -> String {
    let mut j = Json::obj();
    j.set("id", stats.request)
        .set("applied", stats.applied)
        .set("edits", stats.edits)
        .set("relegalized", stats.relegalized)
        .set("touched", stats.touched)
        .set("moved", stats.moved)
        .set("induced_disp", stats.induced_disp)
        .set(
            "window",
            Json::Arr(vec![
                Json::Int(i64::from(stats.window.0)),
                Json::Int(i64::from(stats.window.1)),
                Json::Int(i64::from(stats.window.2)),
                Json::Int(i64::from(stats.window.3)),
            ]),
        )
        .set("mll_calls", stats.mll_calls)
        .set("retry_rounds", stats.retry_rounds)
        .set("escalations", stats.escalations)
        .set(
            "reject",
            match &stats.reject {
                Some(r) => Json::Str(r.clone()),
                None => Json::Null,
            },
        );
    if with_timing {
        j.set(
            "wall_us",
            u64::try_from(stats.wall.as_micros()).unwrap_or(u64::MAX),
        );
    }
    j.compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> EditBatch {
        EditBatch {
            id: 7,
            edits: vec![
                Edit::Move {
                    cell: CellId::from_usize(3),
                    x: 10.5,
                    y: 2.0,
                },
                Edit::Resize {
                    cell: CellId::from_usize(4),
                    width: 6,
                },
                Edit::Insert {
                    name: "buf_x".to_string(),
                    width: 2,
                    height: 2,
                    rail: PowerRail::Vss,
                    x: 1.0,
                    y: 1.0,
                },
                Edit::Delete {
                    cell: CellId::from_usize(5),
                },
            ],
        }
    }

    #[test]
    fn batch_round_trips_through_ndjson() {
        let batch = sample_batch();
        let line = batch_to_line(&batch);
        assert!(!line.contains('\n'));
        let back = parse_batch_line(&line).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn stream_round_trips_and_skips_comments() {
        let batches = vec![
            sample_batch(),
            EditBatch {
                id: 8,
                edits: vec![Edit::Delete {
                    cell: CellId::from_usize(0),
                }],
            },
        ];
        let text = format!("# scripted stream\n\n{}", stream_to_ndjson(&batches));
        assert_eq!(parse_stream(&text).unwrap(), batches);
    }

    #[test]
    fn emission_is_byte_stable() {
        let batch = EditBatch {
            id: 1,
            edits: vec![Edit::Move {
                cell: CellId::from_usize(2),
                x: 4.5,
                y: 1.0,
            }],
        };
        assert_eq!(
            batch_to_line(&batch),
            r#"{"edits":[{"cell":2,"op":"move","x":4.5,"y":1}],"id":1}"#
        );
    }

    #[test]
    fn malformed_lines_report_position() {
        let err = parse_stream("{\"id\":0,\"edits\":[]}\n{\"id\":-1,\"edits\":[]}").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_batch_line(r#"{"id":0,"edits":[{"op":"warp"}]}"#).unwrap_err();
        assert!(err.contains("unknown op"), "{err}");
        let err = parse_batch_line(r#"{"id":0,"edits":[{"op":"move","cell":1}]}"#).unwrap_err();
        assert!(err.contains("`x`"), "{err}");
    }

    #[test]
    fn stats_line_is_stable_without_timing() {
        let stats = BatchStats {
            request: 3,
            applied: true,
            edits: 2,
            relegalized: 2,
            touched: 5,
            moved: 4,
            induced_disp: 7,
            window: (0, 0, 40, 6),
            mll_calls: 1,
            retry_rounds: 0,
            escalations: 0,
            reject: None,
            wall: std::time::Duration::from_micros(1234),
        };
        let line = stats_to_line(&stats, false);
        assert!(!line.contains("wall_us"));
        assert_eq!(
            line,
            "{\"applied\":true,\"edits\":2,\"escalations\":0,\"id\":3,\
             \"induced_disp\":7,\"mll_calls\":1,\"moved\":4,\"reject\":null,\
             \"relegalized\":2,\"retry_rounds\":0,\"touched\":5,\"window\":[0,0,40,6]}"
        );
        assert!(stats_to_line(&stats, true).contains("\"wall_us\":1234"));
    }
}
