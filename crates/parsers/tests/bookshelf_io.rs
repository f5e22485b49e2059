//! Bookshelf writer oracle and reader error table.
//!
//! The oracle keeps a plain `format!`-based writer as the reference and
//! checks that [`bookshelf::write`] produces the same five files byte for
//! byte on a ~5k-cell suite design (nets, macros, fractional positions), a
//! witness design (VSS rails) and a hand-built design whose positions and
//! pin offsets hit the corners of `{:.6}` formatting.
//!
//! The error table feeds the reader one malformed input per error it can
//! report and checks the variant, the file and the line number.

use mrl_db::{CellId, Design, DesignBuilder, PinLocation};
use mrl_geom::{PowerRail, SiteRect};
use mrl_parsers::{bookshelf, ParseError};
use mrl_synth::{generate, generate_witness, BenchmarkSpec, GeneratorConfig, WitnessConfig};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrl_bookshelf_io_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The reference writer: one `writeln!` per line, `{:.6}` through
/// `core::fmt`.
mod reference {
    use super::*;

    pub fn files(design: &Design, base: &str) -> Vec<(String, String)> {
        vec![
            (
                format!("{base}.aux"),
                format!("RowBasedPlacement : {base}.nodes {base}.nets {base}.pl {base}.scl\n"),
            ),
            (format!("{base}.nodes"), nodes_text(design)),
            (format!("{base}.nets"), nets_text(design)),
            (format!("{base}.pl"), pl_text(design)),
            (format!("{base}.scl"), scl_text(design)),
        ]
    }

    fn nodes_text(design: &Design) -> String {
        let mut out = String::from("UCLA nodes 1.0\n\n");
        let terminals = design.cells().iter().filter(|c| !c.is_movable()).count();
        let _ = writeln!(out, "NumNodes : {}", design.num_cells());
        let _ = writeln!(out, "NumTerminals : {terminals}");
        for cell in design.cells() {
            if cell.is_movable() {
                let rail = match cell.rail() {
                    PowerRail::Vdd => "",
                    PowerRail::Vss => " # rail=VSS",
                };
                let _ = writeln!(
                    out,
                    "  {} {} {}{rail}",
                    cell.name(),
                    cell.width(),
                    cell.height()
                );
            } else {
                let _ = writeln!(
                    out,
                    "  {} {} {} terminal",
                    cell.name(),
                    cell.width(),
                    cell.height()
                );
            }
        }
        out
    }

    fn nets_text(design: &Design) -> String {
        let netlist = design.netlist();
        let mut out = String::from("UCLA nets 1.0\n\n");
        let _ = writeln!(out, "NumNets : {}", netlist.num_nets());
        let _ = writeln!(out, "NumPins : {}", netlist.pins().len());
        for net in netlist.nets() {
            let _ = writeln!(out, "NetDegree : {} {}", net.degree(), net.name());
            for &pin in net.pins() {
                match netlist.pin(pin).location {
                    PinLocation::OnCell { cell, dx, dy } => {
                        let c = design.cell(cell);
                        let cdx = dx - f64::from(c.width()) / 2.0;
                        let cdy = dy - f64::from(c.height()) / 2.0;
                        let _ = writeln!(out, "  {} B : {cdx:.6} {cdy:.6}", c.name());
                    }
                    PinLocation::Fixed { x, y } => {
                        let _ = writeln!(out, "  __fixed__ B : {x:.6} {y:.6}");
                    }
                }
            }
        }
        out
    }

    fn pl_text(design: &Design) -> String {
        let mut out = String::from("UCLA pl 1.0\n\n");
        for (i, cell) in design.cells().iter().enumerate() {
            let (x, y) = design.input_position(CellId::from_usize(i));
            if cell.is_movable() {
                let _ = writeln!(out, "{} {x:.6} {y:.6} : N", cell.name());
            } else {
                let _ = writeln!(out, "{} {x:.6} {y:.6} : N /FIXED", cell.name());
            }
        }
        out
    }

    fn scl_text(design: &Design) -> String {
        let fp = design.floorplan();
        let mut out = String::from("UCLA scl 1.0\n\n");
        let _ = writeln!(out, "NumRows : {}", fp.num_rows());
        for (i, row) in fp.rows().iter().enumerate() {
            let _ = writeln!(out, "CoreRow Horizontal");
            let _ = writeln!(out, "  Coordinate : {i}");
            let _ = writeln!(out, "  Height : 1");
            let _ = writeln!(out, "  Sitewidth : 1");
            let _ = writeln!(out, "  Sitespacing : 1");
            let _ = writeln!(out, "  Siteorient : 1");
            let _ = writeln!(out, "  Sitesymmetry : 1");
            let _ = writeln!(out, "  SubrowOrigin : {}  NumSites : {}", row.x, row.width);
            let _ = writeln!(out, "End");
        }
        out
    }
}

fn assert_matches_reference(design: &Design, tag: &str) {
    let dir = tmpdir(tag);
    bookshelf::write(design, &dir, "o").unwrap();
    for (name, text) in reference::files(design, "o") {
        let got = std::fs::read(dir.join(&name)).unwrap();
        if got != text.as_bytes() {
            let got = String::from_utf8_lossy(&got);
            let line = got
                .lines()
                .zip(text.lines())
                .position(|(a, b)| a != b)
                .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
            panic!("{tag}: {name} differs from the reference writer at {line}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn writer_matches_reference_on_suite_design() {
    let spec = BenchmarkSpec::new("oracle", 4_500, 500, 0.7, 0.0);
    let design = generate(&spec, &GeneratorConfig::default().with_seed(7)).unwrap();
    assert!(design.num_cells() > design.num_movable(), "macros present");
    assert!(design.netlist().num_nets() > 4_000);
    assert_matches_reference(&design, "suite");
}

#[test]
fn writer_matches_reference_on_witness_design() {
    let design = generate_witness(&WitnessConfig::new(11).with_cells(2_000).with_macros(3))
        .unwrap()
        .design;
    assert!(design.cells().iter().any(|c| c.rail() == PowerRail::Vss));
    assert_matches_reference(&design, "witness");
}

#[test]
fn writer_matches_reference_on_float_corners() {
    // Every value lands in a `.pl` coordinate, a cell pin offset (shifted
    // by half the cell size) and a fixed pin coordinate.
    let values = [
        0.0,
        -0.0,
        1.0 / 128.0,
        -3.0 / 128.0,
        0.5e-6,
        2.5e-6,
        -1e-9,
        -4e-7,
        0.1,
        1.0 / 3.0,
        123.456_789_5,
        1_099_511.627_775,
        1_099_511.627_776,
        1_099_511.627_777,
        2e6 + 0.25,
        1e300,
        f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let mut b = DesignBuilder::new(4, 64);
    b.add_fixed("blk", SiteRect::new(40, 0, 4, 2));
    let net = b.add_net("corners");
    for (i, &v) in values.iter().enumerate() {
        let c = b.add_cell_with_rail(format!("c{i}"), 2, 1 + (i % 2) as i32, PowerRail::Vss);
        b.set_input_position(c, v, -v);
        b.add_cell_pin(net, c, v, -v);
        b.add_fixed_pin(net, -v, v);
    }
    let design = b.finish().unwrap();
    assert_matches_reference(&design, "corners");
}

/// A small valid design; each error case replaces one of its files.
fn base_files() -> Vec<(&'static str, String)> {
    let scl = scl_rows(&[
        ("0", "1", "1", "0"),
        ("1", "1", "1", "0"),
        ("2", "1", "1", "0"),
    ]);
    vec![
        (
            "aux",
            "RowBasedPlacement : e.nodes e.nets e.pl e.scl\n".into(),
        ),
        (
            "nodes",
            "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 1\n a 2 1\n m 3 1 terminal\n".into(),
        ),
        (
            "nets",
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n a B : 0.5 0\n m B : 0 0\n"
                .into(),
        ),
        (
            "pl",
            "UCLA pl 1.0\na 1.5 0.2 : N\nm 10 1 : N /FIXED\n".into(),
        ),
        ("scl", scl),
    ]
}

/// An `.scl` file with one 20-site row per `(coordinate, height,
/// sitewidth, origin)`.
fn scl_rows(rows: &[(&str, &str, &str, &str)]) -> String {
    let mut scl = String::from("UCLA scl 1.0\n");
    for (coord, height, sitewidth, origin) in rows {
        let _ = write!(
            scl,
            "CoreRow Horizontal\n  Coordinate : {coord}\n  Height : {height}\n  Sitewidth : {sitewidth}\n  SubrowOrigin : {origin}  NumSites : 20\nEnd\n"
        );
    }
    scl
}

/// Writes the base design with `file` replaced by `text` (`None` deletes
/// it) and reads it back.
fn read_with(tag: &str, file: &str, text: Option<&[u8]>) -> (PathBuf, Result<Design, ParseError>) {
    let dir = tmpdir(&format!("err_{tag}"));
    for (ext, body) in base_files() {
        std::fs::write(dir.join(format!("e.{ext}")), body).unwrap();
    }
    let path = dir.join(format!("e.{file}"));
    match text {
        Some(t) => std::fs::write(&path, t).unwrap(),
        None => std::fs::remove_file(&path).unwrap(),
    }
    let result = bookshelf::read(&dir.join("e.aux"));
    (dir, result)
}

/// What a case must produce.
enum Want {
    /// A design (the unmodified base files).
    Ok,
    /// `ParseError::Syntax` in `e.<file>` at `line` with `message`.
    Syntax(&'static str, usize, &'static str),
    /// `ParseError::Semantic(message)`.
    Semantic(&'static str),
    /// `ParseError::Io` of this kind.
    Io(io::ErrorKind),
}

#[test]
fn every_reader_error_names_its_file_and_line() {
    let contiguous = |a: &str, b: &str| scl_rows(&[("0", "1", "1", "0"), (a, b, "1", "0")]);
    let cases: Vec<(&str, &str, Option<String>, Want)> = vec![
        ("base", "aux", Some(base_files()[0].1.clone()), Want::Ok),
        (
            "no_nodes",
            "aux",
            Some("RowBasedPlacement : e.nets e.pl e.scl\n".into()),
            Want::Syntax("aux", 1, "no .nodes file listed"),
        ),
        (
            "no_nets",
            "aux",
            Some("RowBasedPlacement : e.nodes e.pl e.scl\n".into()),
            Want::Syntax("aux", 1, "no .nets file listed"),
        ),
        (
            "no_pl",
            "aux",
            Some("RowBasedPlacement : e.nodes e.nets e.scl\n".into()),
            Want::Syntax("aux", 1, "no .pl file listed"),
        ),
        (
            "no_scl",
            "aux",
            Some("RowBasedPlacement : e.nodes e.nets e.pl\n".into()),
            Want::Syntax("aux", 1, "no .scl file listed"),
        ),
        (
            "aux_missing",
            "aux",
            None,
            Want::Io(io::ErrorKind::NotFound),
        ),
        (
            "nets_missing",
            "nets",
            None,
            Want::Io(io::ErrorKind::NotFound),
        ),
        (
            "scl_number",
            "scl",
            Some("UCLA scl 1.0\nCoreRow Horizontal\n  Coordinate : zero\nEnd\n".into()),
            Want::Syntax("scl", 3, "expected numeric value"),
        ),
        (
            "scl_num_sites",
            "scl",
            Some(
                "UCLA scl 1.0\nCoreRow Horizontal\n  Coordinate : 0\n  SubrowOrigin : 0\nEnd\n"
                    .into(),
            ),
            Want::Syntax("scl", 4, "expected numeric value"),
        ),
        (
            "scl_no_rows",
            "scl",
            Some("UCLA scl 1.0\nNumRows : 0\n".into()),
            Want::Syntax("scl", 0, "no CoreRow records"),
        ),
        (
            "scl_geometry",
            "scl",
            Some(scl_rows(&[("0", "0", "1", "0")])),
            Want::Syntax("scl", 0, "non-positive row geometry"),
        ),
        (
            "scl_mixed",
            "scl",
            Some(contiguous("1", "2")),
            Want::Semantic("rows with mixed heights or site widths are not supported"),
        ),
        (
            "scl_gap",
            "scl",
            Some(contiguous("2", "1")),
            Want::Semantic("rows must be vertically contiguous"),
        ),
        (
            "scl_vertical",
            "scl",
            Some(scl_rows(&[("4", "9", "1", "0")])),
            Want::Semantic("vertical value 4 is not a multiple of the row height 9"),
        ),
        (
            "scl_horizontal",
            "scl",
            Some(scl_rows(&[("0", "1", "2", "1")])),
            Want::Semantic("horizontal value 1 is not a multiple of the site width 2"),
        ),
        (
            "nodes_short",
            "nodes",
            Some("UCLA nodes 1.0\n\n a 2\n".into()),
            Want::Syntax("nodes", 3, "expected: name w h"),
        ),
        (
            "nodes_width",
            "nodes",
            Some("UCLA nodes 1.0\n a two 1\n".into()),
            Want::Syntax("nodes", 2, "bad width"),
        ),
        (
            "nodes_height",
            "nodes",
            Some("UCLA nodes 1.0\n a 2 one\n".into()),
            Want::Syntax("nodes", 2, "bad height"),
        ),
        (
            "nodes_off_grid",
            "nodes",
            Some("UCLA nodes 1.0\n a 2 1.5\n".into()),
            Want::Semantic("vertical value 1.5 is not a multiple of the row height 1"),
        ),
        (
            "pl_short",
            "pl",
            Some("UCLA pl 1.0\n# c\na 1\n".into()),
            Want::Syntax("pl", 3, "expected: name x y"),
        ),
        (
            "pl_x",
            "pl",
            Some("UCLA pl 1.0\na x 0\n".into()),
            Want::Syntax("pl", 2, "bad x"),
        ),
        (
            "pl_y",
            "pl",
            Some("UCLA pl 1.0\na 0 y\n".into()),
            Want::Syntax("pl", 2, "bad y"),
        ),
        (
            "pl_terminal",
            "pl",
            Some("UCLA pl 1.0\na 0 0 : N\n".into()),
            Want::Semantic("terminal m has no .pl position"),
        ),
        (
            "nets_orphan",
            "nets",
            Some("UCLA nets 1.0\n\n a B : 0 0\n".into()),
            Want::Syntax("nets", 3, "pin before NetDegree"),
        ),
        (
            "nets_unknown",
            "nets",
            Some("UCLA nets 1.0\nNetDegree : 1 n\n zz B : 0 0\n".into()),
            Want::Semantic("pin references unknown cell zz"),
        ),
        (
            "too_wide",
            "nodes",
            Some("UCLA nodes 1.0\n a 21 1\n m 3 1 terminal\n".into()),
            Want::Semantic("invalid design: cell a (21 sites) is wider than every row"),
        ),
    ];
    for (tag, file, text, want) in cases {
        let (dir, result) = read_with(tag, file, text.as_deref().map(str::as_bytes));
        match (want, result) {
            (Want::Ok, Ok(_)) => {}
            (
                Want::Syntax(f, l, m),
                Err(ParseError::Syntax {
                    file,
                    line,
                    message,
                }),
            ) => {
                assert_eq!(file, dir.join(format!("e.{f}")), "{tag}: file");
                assert_eq!((line, message.as_str()), (l, m), "{tag}: line and message");
            }
            (Want::Semantic(m), Err(ParseError::Semantic(message))) => {
                assert_eq!(message, m, "{tag}: message");
            }
            (Want::Io(kind), Err(ParseError::Io(e))) => assert_eq!(e.kind(), kind, "{tag}"),
            (_, other) => panic!("{tag}: unexpected {:?}", other.map(|d| d.num_cells())),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A `.nets` file that is not UTF-8 is an I/O error, as is any other
    // unreadable file.
    let (dir, result) = read_with("nets_bytes", "nets", Some(b"UCLA nets 1.0\n\xff\xfe\n"));
    assert!(
        matches!(&result, Err(ParseError::Io(e)) if e.kind() == io::ErrorKind::InvalidData),
        "{:?}",
        result.map(|d| d.num_cells())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_node_names_share_the_position_and_the_last_entry_gets_the_pins() {
    let dir = tmpdir("dup");
    let files = [
        (
            "aux",
            "RowBasedPlacement : d.nodes d.nets d.pl d.scl\n".to_string(),
        ),
        (
            "nodes",
            "UCLA nodes 1.0\n a 2 1\n a 3 1 terminal\n a 4 2\n".to_string(),
        ),
        (
            "nets",
            "UCLA nets 1.0\nNetDegree : 1 n0\n a B : 0.5 0.25\n".to_string(),
        ),
        ("pl", "UCLA pl 1.0\na 6 1 : N\n".to_string()),
        (
            "scl",
            scl_rows(&[
                ("0", "1", "1", "0"),
                ("1", "1", "1", "0"),
                ("2", "1", "1", "0"),
            ]),
        ),
    ];
    for (ext, body) in files {
        std::fs::write(dir.join(format!("d.{ext}")), body).unwrap();
    }
    let design = bookshelf::read(&dir.join("d.aux")).unwrap();
    let sizes: Vec<_> = design
        .cells()
        .iter()
        .map(|c| (c.name(), c.width(), c.height(), c.is_movable()))
        .collect();
    assert_eq!(
        sizes,
        [("a", 2, 1, true), ("a", 3, 1, false), ("a", 4, 2, true)]
    );
    // All three entries sit at the name's one `.pl` position.
    for i in 0..3 {
        assert_eq!(
            design.input_position(CellId::new(i)),
            (6.0, 1.0),
            "cell {i}"
        );
    }
    // The pin goes to the last entry, and its center offset is converted
    // with that entry's 4x2 size.
    let netlist = design.netlist();
    assert_eq!(netlist.pins().len(), 1);
    match netlist.pins()[0].location {
        PinLocation::OnCell { cell, dx, dy } => {
            assert_eq!(cell, CellId::new(2));
            assert_eq!((dx, dy), (0.5 + 2.0, 0.25 + 1.0));
        }
        PinLocation::Fixed { .. } => panic!("expected a cell pin"),
    }
    for i in 0..3 {
        assert_eq!(
            netlist.pins_of_cell(CellId::new(i)).len(),
            usize::from(i == 2)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
