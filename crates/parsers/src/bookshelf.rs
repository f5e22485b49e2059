//! Bookshelf (`.aux`, `.nodes`, `.nets`, `.pl`, `.scl`) reader and writer.
//!
//! Conventions implemented (the common GSRC/ISPD dialect):
//!
//! * `.nodes` — `name width height [terminal]`; terminals are fixed
//!   macros whose footprints block placement sites,
//! * `.nets` — `NetDegree : k name` headers followed by
//!   `cell I/O/B : dx dy` pin lines with offsets **from the cell center**,
//! * `.pl` — `name x y : ORIENT [/FIXED]`; movable cells carry their
//!   (possibly fractional, off-grid) global-placement positions,
//! * `.scl` — `CoreRow` records; `Height` and `Sitewidth` are normalized
//!   away so the in-memory design is in site units.
//!
//! Plain Bookshelf cannot express power-rail polarity. The writer encodes
//! a non-default (VSS-bottom) rail as a `# rail=VSS` trailing comment on
//! the cell's `.nodes` line; the reader understands the annotation and
//! otherwise falls back to the default (VDD-bottom) rail, so files from
//! other tools still load and annotated files round-trip **byte
//! identically** (`write → read → write` is the identity on bytes; see
//! the round-trip property test). Everything else round-trips exactly;
//! see the crate-level example.
//!
//! # Copies and allocations
//!
//! Both directions are sized for ISPD-scale files (des_perf_1 is 20 MB,
//! superblue12 237 MB), so neither copies what it does not keep:
//!
//! * The reader takes tokens as slices of the file text; no line is
//!   collected into a `Vec`. One `HashMap<&str, CellId>`, keyed by slices
//!   of the `.nodes` text, maps each name to its last `.nodes` entry. The
//!   `.pl` and `.nets` passes both look names up there; positions go into
//!   a `Vec` indexed by node, and the `.nets` pass reads cell sizes from a
//!   dense array. Only the cells and nets the design keeps get an owned
//!   name. The file texts and the map are freed before the cell → pin
//!   index is built.
//! * The writer writes each file through one 1 MiB `BufWriter`, with no
//!   `String` per file or per line. The `{:.6}` floats take an exact fast
//!   path that writes their digits from a stack buffer (its error bound
//!   is at `push_f6`) and falls back to `core::fmt` for ties, large
//!   values, NaN and infinities; integers go through `core::fmt`.

use crate::ParseError;
use mrl_db::{CellId, Design, DesignBuilder, PinLocation};
use mrl_geom::{PowerRail, SiteRect};
use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Writes `design` as `<base>.aux` plus the four data files into `dir`.
///
/// # Errors
///
/// Any I/O failure while creating or writing the files.
pub fn write(design: &Design, dir: &Path, base: &str) -> Result<(), ParseError> {
    fs::create_dir_all(dir)?;
    fs::write(
        dir.join(format!("{base}.aux")),
        format!("RowBasedPlacement : {base}.nodes {base}.nets {base}.pl {base}.scl\n"),
    )?;
    let create = |ext: &str| -> io::Result<BufWriter<fs::File>> {
        let file = fs::File::create(dir.join(format!("{base}.{ext}")))?;
        Ok(BufWriter::with_capacity(CHUNK, file))
    };
    write_nodes(design, create("nodes")?)?;
    write_nets(design, create("nets")?)?;
    write_pl(design, create("pl")?)?;
    write_scl(design, create("scl")?)?;
    Ok(())
}

/// Capacity of each output file's `BufWriter`.
const CHUNK: usize = 1 << 20;

/// Room for a sign, 7 digits, a point and 6 more digits.
const DIGITS: usize = 16;

/// Writes `n` in decimal, zero-padded to at least `width` digits, so
/// that it ends just before `tmp[end]`; returns where it starts.
fn put_digits(tmp: &mut [u8; DIGITS], mut end: usize, mut n: u64, width: usize) -> usize {
    let stop = end - width;
    loop {
        end -= 1;
        tmp[end] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 && end <= stop {
            return end;
        }
    }
}

/// `2^40`: below it, `|v|·1e6` is off from the exact product by less
/// than `2^40 · 2^-53 = 2^-13` (one rounding of a product by the exact
/// `1e6`).
const F6_FAST_LIMIT: f64 = 1_099_511_627_776.0;

/// Writes `v` exactly as `format!("{v:.6}")` would.
///
/// Fast path: with `m = |v|·1e6` below [`F6_FAST_LIMIT`] and its fraction
/// more than `1e-3` away from ½, the exact product rounds to the same
/// integer as `m` (the error bound is `2^-13`), so the digits of
/// `round(m)` with the point six places from the right are the correctly
/// rounded result. The sign comes from the sign bit, as in `core::fmt`
/// (`-0.0` and negatives that round to zero print `-0.000000`). Ties and
/// near-ties, large values, NaN and infinities go through `core::fmt`.
fn push_f6(w: &mut impl Write, v: f64) -> io::Result<()> {
    let m = v.abs() * 1e6;
    if m < F6_FAST_LIMIT {
        // Below the limit the truncation and the fraction are exact.
        let whole = m as u64;
        let frac = m - whole as f64;
        if (frac - 0.5).abs() > 1e-3 {
            let r = whole + u64::from(frac > 0.5);
            let mut tmp = [0u8; DIGITS];
            let point = put_digits(&mut tmp, DIGITS, r % 1_000_000, 6) - 1;
            tmp[point] = b'.';
            let mut i = put_digits(&mut tmp, point, r / 1_000_000, 1);
            if v.is_sign_negative() {
                i -= 1;
                tmp[i] = b'-';
            }
            return w.write_all(&tmp[i..]);
        }
    }
    write!(w, "{v:.6}")
}

fn write_nodes(design: &Design, mut w: impl Write) -> io::Result<()> {
    let terminals = design.cells().iter().filter(|c| !c.is_movable()).count();
    writeln!(
        w,
        "UCLA nodes 1.0\n\nNumNodes : {}\nNumTerminals : {terminals}",
        design.num_cells()
    )?;
    for cell in design.cells() {
        w.write_all(b"  ")?;
        w.write_all(cell.name().as_bytes())?;
        write!(w, " {} {}", cell.width(), cell.height())?;
        let tail: &[u8] = if !cell.is_movable() {
            b" terminal\n"
        } else if cell.rail() == PowerRail::Vss {
            b" # rail=VSS\n"
        } else {
            b"\n"
        };
        w.write_all(tail)?;
    }
    w.flush()
}

fn write_nets(design: &Design, mut w: impl Write) -> io::Result<()> {
    let netlist = design.netlist();
    writeln!(
        w,
        "UCLA nets 1.0\n\nNumNets : {}\nNumPins : {}",
        netlist.num_nets(),
        netlist.pins().len()
    )?;
    for net in netlist.nets() {
        write!(w, "NetDegree : {} ", net.degree())?;
        w.write_all(net.name().as_bytes())?;
        w.write_all(b"\n")?;
        for &pin in net.pins() {
            let (name, x, y) = match netlist.pin(pin).location {
                PinLocation::OnCell { cell, dx, dy } => {
                    let c = design.cell(cell);
                    // Bookshelf offsets are from the cell center.
                    let cdx = dx - f64::from(c.width()) / 2.0;
                    let cdy = dy - f64::from(c.height()) / 2.0;
                    (c.name(), cdx, cdy)
                }
                // Fixed pins are modelled as zero-size pseudo terminals;
                // rare in our flows, encoded via a reserved name.
                PinLocation::Fixed { x, y } => ("__fixed__", x, y),
            };
            w.write_all(b"  ")?;
            w.write_all(name.as_bytes())?;
            w.write_all(b" B : ")?;
            push_f6(&mut w, x)?;
            w.write_all(b" ")?;
            push_f6(&mut w, y)?;
            w.write_all(b"\n")?;
        }
    }
    w.flush()
}

fn write_pl(design: &Design, mut w: impl Write) -> io::Result<()> {
    w.write_all(b"UCLA pl 1.0\n\n")?;
    for (i, cell) in design.cells().iter().enumerate() {
        let (x, y) = design.input_position(CellId::from_usize(i));
        w.write_all(cell.name().as_bytes())?;
        w.write_all(b" ")?;
        push_f6(&mut w, x)?;
        w.write_all(b" ")?;
        push_f6(&mut w, y)?;
        let tail: &[u8] = if cell.is_movable() {
            b" : N\n"
        } else {
            b" : N /FIXED\n"
        };
        w.write_all(tail)?;
    }
    w.flush()
}

fn write_scl(design: &Design, mut w: impl Write) -> io::Result<()> {
    let fp = design.floorplan();
    writeln!(w, "UCLA scl 1.0\n\nNumRows : {}", fp.num_rows())?;
    for (i, row) in fp.rows().iter().enumerate() {
        writeln!(w, "CoreRow Horizontal\n  Coordinate : {i}")?;
        for line in [
            "  Height : 1",
            "  Sitewidth : 1",
            "  Sitespacing : 1",
            "  Siteorient : 1",
            "  Sitesymmetry : 1",
        ] {
            writeln!(w, "{line}")?;
        }
        writeln!(
            w,
            "  SubrowOrigin : {}  NumSites : {}\nEnd",
            row.x, row.width
        )?;
    }
    w.flush()
}

/// Reads a design from a `.aux` file.
///
/// # Errors
///
/// [`ParseError::Io`] on missing files, [`ParseError::Syntax`] on
/// malformed content, [`ParseError::Semantic`] when the files are
/// mutually inconsistent or fail design validation.
pub fn read(aux_path: &Path) -> Result<Design, ParseError> {
    let aux = fs::read_to_string(aux_path)?;
    let dir = aux_path.parent().unwrap_or(Path::new("."));
    let mut nodes_file = None;
    let mut nets_file = None;
    let mut pl_file = None;
    let mut scl_file = None;
    for token in aux.split_whitespace() {
        if token.ends_with(".nodes") {
            nodes_file = Some(dir.join(token));
        } else if token.ends_with(".nets") {
            nets_file = Some(dir.join(token));
        } else if token.ends_with(".pl") {
            pl_file = Some(dir.join(token));
        } else if token.ends_with(".scl") {
            scl_file = Some(dir.join(token));
        }
    }
    let missing = |what: &str| ParseError::syntax(aux_path, 1, format!("no {what} file listed"));
    let nodes_file = nodes_file.ok_or_else(|| missing(".nodes"))?;
    let nets_file = nets_file.ok_or_else(|| missing(".nets"))?;
    let pl_file = pl_file.ok_or_else(|| missing(".pl"))?;
    let scl_file = scl_file.ok_or_else(|| missing(".scl"))?;

    // --- .scl -----------------------------------------------------------
    let scl = fs::read_to_string(&scl_file)?;
    #[derive(Default, Clone)]
    struct RawRow {
        coordinate: f64,
        height: f64,
        site_width: f64,
        origin: f64,
        num_sites: f64,
    }
    let mut rows: Vec<RawRow> = Vec::new();
    let mut cur: Option<RawRow> = None;
    for (lno, line) in scl.lines().enumerate() {
        let lno = lno + 1;
        let line = strip_comment(line);
        match line.split_whitespace().next() {
            Some("CoreRow") => {
                cur = Some(RawRow {
                    site_width: 1.0,
                    height: 1.0,
                    ..RawRow::default()
                })
            }
            Some("End") => {
                if let Some(r) = cur.take() {
                    rows.push(r);
                }
            }
            Some(key) => {
                if let Some(r) = cur.as_mut() {
                    // The first number after the `idx`-th colon.
                    let val = |idx: usize| -> Result<f64, ParseError> {
                        line.split(':')
                            .nth(idx)
                            .and_then(|s| s.split_whitespace().next())
                            .and_then(|s| s.parse::<f64>().ok())
                            .ok_or_else(|| {
                                ParseError::syntax(&scl_file, lno, "expected numeric value")
                            })
                    };
                    match key {
                        "Coordinate" => r.coordinate = val(1)?,
                        "Height" => r.height = val(1)?,
                        "Sitewidth" => r.site_width = val(1)?,
                        "SubrowOrigin" => {
                            r.origin = val(1)?;
                            // `SubrowOrigin : x NumSites : n`
                            r.num_sites = val(2)?;
                        }
                        _ => {}
                    }
                }
            }
            None => {}
        }
    }
    drop(scl);
    if rows.is_empty() {
        return Err(ParseError::syntax(&scl_file, 0, "no CoreRow records"));
    }
    rows.sort_by(|a, b| a.coordinate.total_cmp(&b.coordinate));
    let row_h = rows[0].height;
    let site_w = rows[0].site_width;
    if row_h <= 0.0 || site_w <= 0.0 {
        return Err(ParseError::syntax(
            &scl_file,
            0,
            "non-positive row geometry",
        ));
    }
    let to_rows = |v: f64| -> Result<i32, ParseError> {
        let r = v / row_h;
        if (r - r.round()).abs() > 1e-6 {
            return Err(ParseError::Semantic(format!(
                "vertical value {v} is not a multiple of the row height {row_h}"
            )));
        }
        Ok(r.round() as i32)
    };
    let to_sites = |v: f64| -> Result<i32, ParseError> {
        let s = v / site_w;
        if (s - s.round()).abs() > 1e-6 {
            return Err(ParseError::Semantic(format!(
                "horizontal value {v} is not a multiple of the site width {site_w}"
            )));
        }
        Ok(s.round() as i32)
    };
    let base_row = to_rows(rows[0].coordinate)?;
    let mut design_rows = Vec::with_capacity(rows.len());
    for (i, r) in rows.iter().enumerate() {
        if (r.height - row_h).abs() > 1e-9 || (r.site_width - site_w).abs() > 1e-9 {
            return Err(ParseError::Semantic(
                "rows with mixed heights or site widths are not supported".into(),
            ));
        }
        if to_rows(r.coordinate)? - base_row != i as i32 {
            return Err(ParseError::Semantic(
                "rows must be vertically contiguous".into(),
            ));
        }
        design_rows.push(mrl_db::Row::new(to_sites(r.origin)?, r.num_sites as i32));
    }
    let mut builder = DesignBuilder::with_rows(design_rows);
    builder.set_name(
        aux_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "bookshelf".into()),
    );

    // --- .nodes ----------------------------------------------------------
    // Names stay slices of this text until the cells are built; `index`
    // maps each name to the `CellId` of its last `.nodes` entry (cells are
    // created in `.nodes` order).
    let nodes = fs::read_to_string(&nodes_file)?;
    struct RawNode<'a> {
        name: &'a str,
        w: i32,
        h: i32,
        terminal: bool,
        rail: PowerRail,
    }
    let mut raw_nodes: Vec<RawNode> = Vec::new();
    for (lno, line) in nodes.lines().enumerate() {
        let lno = lno + 1;
        // Our rail-polarity extension rides in the comment; read it before
        // the comment is stripped.
        let rail = if line
            .split('#')
            .nth(1)
            .is_some_and(|c| c.contains("rail=VSS"))
        {
            PowerRail::Vss
        } else {
            PowerRail::Vdd
        };
        let mut tokens = strip_comment(line).split_whitespace();
        let name = match tokens.next() {
            None | Some("UCLA" | "NumNodes" | "NumTerminals") => continue,
            Some(name) => name,
        };
        let (Some(w), Some(h)) = (tokens.next(), tokens.next()) else {
            return Err(ParseError::syntax(&nodes_file, lno, "expected: name w h"));
        };
        let w: f64 = w
            .parse()
            .map_err(|_| ParseError::syntax(&nodes_file, lno, "bad width"))?;
        let h: f64 = h
            .parse()
            .map_err(|_| ParseError::syntax(&nodes_file, lno, "bad height"))?;
        raw_nodes.push(RawNode {
            name,
            w: to_sites(w)?,
            h: to_rows(h)?,
            terminal: tokens
                .next()
                .is_some_and(|t| t.eq_ignore_ascii_case("terminal")),
            rail,
        });
    }
    let mut index: HashMap<&str, CellId> = HashMap::with_capacity(raw_nodes.len());
    for (i, node) in raw_nodes.iter().enumerate() {
        index.insert(node.name, CellId::from_usize(i));
    }

    // --- .pl -------------------------------------------------------------
    let mut positions: Vec<Option<(f64, f64)>> = vec![None; raw_nodes.len()];
    {
        let pl = fs::read_to_string(&pl_file)?;
        for (lno, line) in pl.lines().enumerate() {
            let lno = lno + 1;
            let mut tokens = strip_comment(line).split_whitespace();
            let name = match tokens.next() {
                None | Some("UCLA") => continue,
                Some(name) => name,
            };
            let (Some(x), Some(y)) = (tokens.next(), tokens.next()) else {
                return Err(ParseError::syntax(&pl_file, lno, "expected: name x y"));
            };
            let x: f64 = x
                .parse()
                .map_err(|_| ParseError::syntax(&pl_file, lno, "bad x"))?;
            let y: f64 = y
                .parse()
                .map_err(|_| ParseError::syntax(&pl_file, lno, "bad y"))?;
            if let Some(id) = index.get(name) {
                positions[id.index()] = Some((x / site_w, y / row_h - f64::from(base_row)));
            }
        }
    }

    // Create cells. Same-named nodes share the last one's `.pl` position.
    for node in &raw_nodes {
        let position = positions[index[node.name].index()];
        if node.terminal {
            let (x, y) = position.ok_or_else(|| {
                ParseError::Semantic(format!("terminal {} has no .pl position", node.name))
            })?;
            builder.add_fixed(
                node.name,
                SiteRect::new(x.round() as i32, y.round() as i32, node.w, node.h.max(1)),
            );
        } else {
            let id = builder.add_cell_with_rail(node.name, node.w, node.h, node.rail);
            if let Some((x, y)) = position {
                builder.set_input_position(id, x, y);
            }
        }
    }
    // The `.nets` pass needs only each node's size: a dense array keeps
    // its random per-pin reads in cache.
    let sizes: Vec<(i32, i32)> = raw_nodes.iter().map(|n| (n.w, n.h.max(1))).collect();
    drop(positions);
    drop(raw_nodes);

    // --- .nets -----------------------------------------------------------
    let nets = fs::read_to_string(&nets_file)?;
    let mut current_net = None;
    for (lno, line) in nets.lines().enumerate() {
        let lno = lno + 1;
        let line = strip_comment(line);
        let mut tokens = line.split_whitespace();
        let first = match tokens.next() {
            None | Some("UCLA" | "NumNets" | "NumPins") => continue,
            Some(first) => first,
        };
        if first == "NetDegree" {
            let last = tokens.last().unwrap_or(first);
            let name = if last.as_bytes()[0].is_ascii_digit() {
                format!("net_{lno}")
            } else {
                last.to_string()
            };
            current_net = Some(builder.add_net(name));
            continue;
        }
        let Some(net) = current_net else {
            return Err(ParseError::syntax(&nets_file, lno, "pin before NetDegree"));
        };
        // `name dir : dx dy` (offsets optional).
        let mut offsets = line
            .split(':')
            .nth(1)
            .unwrap_or_default()
            .split_whitespace()
            .map(|s| s.parse::<f64>().ok());
        let dx = offsets.next().flatten().unwrap_or(0.0);
        let dy = offsets.next().flatten().unwrap_or(0.0);
        if first == "__fixed__" {
            builder.add_fixed_pin(net, dx, dy);
            continue;
        }
        let &id = index
            .get(first)
            .ok_or_else(|| ParseError::Semantic(format!("pin references unknown cell {first}")))?;
        let (w, h) = sizes[id.index()];
        // Center offsets back to corner offsets, in site units.
        builder.add_cell_pin(
            net,
            id,
            dx / site_w + f64::from(w) / 2.0,
            dy / row_h + f64::from(h) / 2.0,
        );
    }

    // Free the file texts and the name map before `finish` builds the
    // cell → pin index on top of them.
    drop(index);
    drop(sizes);
    drop(nets);
    drop(nodes);
    Ok(builder.finish()?)
}

fn strip_comment(line: &str) -> &str {
    line.split('#').next().unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrl_synth::{generate, BenchmarkSpec, GeneratorConfig};
    use std::path::PathBuf;

    /// A per-test directory under the system temp dir, removed on drop —
    /// also when the test panics.
    struct TmpDir(PathBuf);

    impl std::ops::Deref for TmpDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmpdir(tag: &str) -> TmpDir {
        let dir = std::env::temp_dir().join(format!("mrl_bookshelf_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }

    fn sample_design() -> Design {
        let spec = BenchmarkSpec::new("bk_test", 60, 6, 0.4, 0.0);
        generate(&spec, &GeneratorConfig::default()).unwrap()
    }

    #[test]
    fn round_trip_preserves_structure() {
        let design = sample_design();
        let dir = tmpdir("rt");
        write(&design, &dir, "bk_test").unwrap();
        let back = read(&dir.join("bk_test.aux")).unwrap();
        assert_eq!(back.num_cells(), design.num_cells());
        assert_eq!(back.num_movable(), design.num_movable());
        assert_eq!(back.netlist().num_nets(), design.netlist().num_nets());
        assert_eq!(back.floorplan().num_rows(), design.floorplan().num_rows());
        // Cell geometry round-trips exactly.
        for (a, b) in design.cells().iter().zip(back.cells()) {
            assert_eq!(
                (a.name(), a.width(), a.height()),
                (b.name(), b.width(), b.height())
            );
            assert_eq!(a.is_movable(), b.is_movable());
        }
        // Input positions round-trip to printed precision.
        for c in design.movable_cells() {
            let (x0, y0) = design.input_position(c);
            let (x1, y1) = back.input_position(c);
            assert!((x0 - x1).abs() < 1e-5 && (y0 - y1).abs() < 1e-5);
        }
    }

    #[test]
    fn round_trip_preserves_hpwl() {
        let design = sample_design();
        let dir = tmpdir("hpwl");
        write(&design, &dir, "bk_test").unwrap();
        let back = read(&dir.join("bk_test.aux")).unwrap();
        let a = design.hpwl_um(|c| design.input_position(c));
        let b = back.hpwl_um(|c| back.input_position(c));
        assert!((a - b).abs() / a.max(1.0) < 1e-4, "{a} vs {b}");
    }

    #[test]
    fn scaled_units_are_normalized() {
        // Hand-written bookshelf with Height 9, Sitewidth 2.
        let dir = tmpdir("units");
        std::fs::write(
            dir.join("u.aux"),
            "RowBasedPlacement : u.nodes u.nets u.pl u.scl\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("u.nodes"),
            "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n a 4 9\n b 6 18\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("u.nets"),
            "UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("u.pl"),
            "UCLA pl 1.0\na 8.0 9.0 : N\nb 0.0 0.0 : N\n",
        )
        .unwrap();
        let mut scl = String::from("UCLA scl 1.0\nNumRows : 3\n");
        for i in 0..3 {
            scl.push_str(&format!(
                "CoreRow Horizontal\n  Coordinate : {}\n  Height : 9\n  Sitewidth : 2\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
                i * 9
            ));
        }
        std::fs::write(dir.join("u.scl"), scl).unwrap();
        let d = read(&dir.join("u.aux")).unwrap();
        assert_eq!(d.floorplan().num_rows(), 3);
        let a = d.cells().iter().find(|c| c.name() == "a").unwrap();
        assert_eq!((a.width(), a.height()), (2, 1));
        let b = d.cells().iter().find(|c| c.name() == "b").unwrap();
        assert_eq!((b.width(), b.height()), (3, 2));
        let a_id = mrl_db::CellId::new(0);
        assert_eq!(d.input_position(a_id), (4.0, 1.0));
    }

    #[test]
    fn terminal_without_position_is_semantic_error() {
        let dir = tmpdir("badterm");
        std::fs::write(
            dir.join("t.aux"),
            "RowBasedPlacement : t.nodes t.nets t.pl t.scl\n",
        )
        .unwrap();
        std::fs::write(dir.join("t.nodes"), "UCLA nodes 1.0\n m 4 1 terminal\n").unwrap();
        std::fs::write(dir.join("t.nets"), "UCLA nets 1.0\n").unwrap();
        std::fs::write(dir.join("t.pl"), "UCLA pl 1.0\n").unwrap();
        std::fs::write(
            dir.join("t.scl"),
            "UCLA scl 1.0\nCoreRow Horizontal\n  Coordinate : 0\n  Height : 1\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 10\nEnd\n",
        )
        .unwrap();
        let err = read(&dir.join("t.aux")).unwrap_err();
        assert!(matches!(err, ParseError::Semantic(_)));
    }

    #[test]
    fn missing_file_reference_is_syntax_error() {
        let dir = tmpdir("noref");
        std::fs::write(dir.join("x.aux"), "RowBasedPlacement : x.nodes\n").unwrap();
        let err = read(&dir.join("x.aux")).unwrap_err();
        assert!(matches!(err, ParseError::Syntax { .. }));
    }

    #[test]
    fn rails_round_trip_via_annotation() {
        use mrl_geom::PowerRail;
        let mut b = mrl_db::DesignBuilder::new(4, 20);
        let v = b.add_cell_with_rail("vdd_cell", 2, 2, PowerRail::Vdd);
        let s = b.add_cell_with_rail("vss_cell", 2, 2, PowerRail::Vss);
        b.set_input_position(v, 0.0, 0.0);
        b.set_input_position(s, 4.0, 1.0);
        let design = b.finish().unwrap();
        let dir = tmpdir("rails");
        write(&design, &dir, "rails").unwrap();
        let nodes = std::fs::read_to_string(dir.join("rails.nodes")).unwrap();
        assert!(nodes.contains("vss_cell 2 2 # rail=VSS"), "{nodes}");
        let back = read(&dir.join("rails.aux")).unwrap();
        assert_eq!(back.cell(v).rail(), PowerRail::Vdd);
        assert_eq!(back.cell(s).rail(), PowerRail::Vss);
    }

    // The writer and reader must be exact inverses on our own output:
    // write → read → write is the identity on all five files, byte for
    // byte. Without this, corpus reproducers and the CLI's .pl
    // byte-compare tests would drift through every save/load cycle.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        #[test]
        fn write_read_write_is_byte_identical(seed in 0u32..1_000_000u32) {
            let files = ["aux", "nodes", "nets", "pl", "scl"];
            // Witness designs carry VSS rails; suite designs carry nets,
            // macros, and off-grid fractional positions.
            let witness = mrl_synth::generate_witness(
                &mrl_synth::WitnessConfig::new(u64::from(seed)).with_cells(40),
            )
            .unwrap()
            .design;
            let spec = BenchmarkSpec::new(format!("rt_{seed}"), 30, 4, 0.4, 0.0);
            let suite =
                generate(&spec, &GeneratorConfig::default().with_seed(u64::from(seed))).unwrap();
            for (tag, design) in [("w", witness), ("s", suite)] {
                let d1 = tmpdir(&format!("bytes_{tag}_{seed}_1"));
                let d2 = tmpdir(&format!("bytes_{tag}_{seed}_2"));
                write(&design, &d1, "rt").unwrap();
                let back = read(&d1.join("rt.aux")).unwrap();
                write(&back, &d2, "rt").unwrap();
                for f in files {
                    let a = std::fs::read(d1.join(format!("rt.{f}"))).unwrap();
                    let b = std::fs::read(d2.join(format!("rt.{f}"))).unwrap();
                    proptest::prop_assert!(
                        a == b,
                        "{tag} seed {seed}: rt.{f} not byte-identical after round trip"
                    );
                }
            }
        }
    }

    fn f6(v: f64) -> String {
        let mut buf = Vec::new();
        push_f6(&mut buf, v).unwrap();
        String::from_utf8(buf).unwrap()
    }

    /// `v` moved by `ulps` units in the last place, away from zero for
    /// positive `ulps` (the sign of `v` is kept).
    fn nudge(v: f64, ulps: i64) -> f64 {
        let a = f64::from_bits(v.abs().to_bits().saturating_add_signed(ulps));
        a.copysign(v)
    }

    #[test]
    fn f6_special_values_match_core_fmt() {
        for v in [
            0.0,
            -0.0,
            -1e-300,
            -4.9e-7,
            5e-7,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            F6_FAST_LIMIT / 1e6,
            -F6_FAST_LIMIT / 1e6,
        ] {
            assert_eq!(f6(v), format!("{v:.6}"), "{v:e} ({:#x})", v.to_bits());
        }
        assert_eq!(f6(-0.0), "-0.000000");
        assert_eq!(f6(-1e-9), "-0.000000");
    }

    // The fast `{:.6}` path must agree with `core::fmt` everywhere: on
    // arbitrary bit patterns, on six-decimal values a few ulps either
    // side, on exact and near half-ties (`k/128`, `(n + 0.5)/1e6`), on
    // ±0 and tiny values of either sign, around the fast path's 2^40/1e6
    // limit, and on NaN and ±inf.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]
        #[test]
        fn f6_matches_core_fmt(
            bits in proptest::prelude::any::<u64>(),
            micros in 0u64..(1u64 << 41),
            k in -(1i64 << 28)..(1i64 << 28),
            ulps in -4i64..5,
            wide in -(1i64 << 20)..(1i64 << 20),
            neg in proptest::prelude::any::<bool>(),
        ) {
            let sign = if neg { -1.0 } else { 1.0 };
            let values = [
                f64::from_bits(bits),
                nudge(sign * micros as f64 / 1e6, ulps),
                nudge(sign * (micros as f64 + 0.5) / 1e6, ulps),
                nudge(k as f64 / 128.0, ulps),
                sign * f64::from_bits(bits >> 12) * 1e-300,
                sign * (bits % 1_000_000) as f64 * 1e-13,
                nudge(sign * F6_FAST_LIMIT / 1e6, wide),
                sign * 0.0,
                sign * f64::INFINITY,
                f64::NAN,
            ];
            for v in values {
                let want = format!("{v:.6}");
                proptest::prop_assert!(f6(v) == want, "{v:e} ({:#x}): {} != {want}", v.to_bits(), f6(v));
            }
        }
    }

    #[test]
    fn comments_are_ignored() {
        let dir = tmpdir("comments");
        std::fs::write(
            dir.join("c.aux"),
            "RowBasedPlacement : c.nodes c.nets c.pl c.scl\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("c.nodes"),
            "UCLA nodes 1.0\n# a comment line\n a 2 1 # trailing\n",
        )
        .unwrap();
        std::fs::write(dir.join("c.nets"), "UCLA nets 1.0\n").unwrap();
        std::fs::write(dir.join("c.pl"), "UCLA pl 1.0\na 0 0 : N\n").unwrap();
        std::fs::write(
            dir.join("c.scl"),
            "UCLA scl 1.0\nCoreRow Horizontal\n  Coordinate : 0\n  Height : 1\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 10\nEnd\n",
        )
        .unwrap();
        let d = read(&dir.join("c.aux")).unwrap();
        assert_eq!(d.num_movable(), 1);
    }
}
