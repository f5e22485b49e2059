//! A self-contained, rebuildable description of one fuzz case.
//!
//! The shrinker needs to delete cells, unperturb positions, and trim the
//! floorplan while re-running the invariant matrix after every candidate
//! edit; [`Scenario`] is the minimal value type that supports those edits
//! and deterministically rebuilds into a [`Design`]. It also round-trips
//! through Bookshelf (plus a small `meta.txt`) so minimal reproducers can
//! live in `tests/corpus/` and replay as ordinary `cargo test` cases.

use mrl_db::{CellId, DbError, Design, DesignBuilder, Row};
use mrl_geom::{PowerRail, SitePoint, SiteRect};
use mrl_parsers::bookshelf;
use mrl_synth::Witness;
use std::fmt::Write as _;
use std::path::Path;

/// One movable cell of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioCell {
    /// Instance name.
    pub name: String,
    /// Width in sites.
    pub w: i32,
    /// Height in rows.
    pub h: i32,
    /// Native bottom rail.
    pub rail: PowerRail,
    /// Witness (known-legal) position, when known. Corpus reloads lose it;
    /// shrink edits preserve it.
    pub legal: Option<SitePoint>,
    /// Input (perturbed global-placement) position.
    pub input: (f64, f64),
}

/// A rebuildable fuzz case: floorplan, macros, and movable cells.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Design name (also the corpus fixture base name).
    pub name: String,
    /// Row origin in sites (translation twins shift it).
    pub x0: i32,
    /// Number of rows.
    pub num_rows: i32,
    /// Row width in sites.
    pub row_width: i32,
    /// Fixed macro footprints.
    pub macros: Vec<SiteRect>,
    /// Movable cells.
    pub cells: Vec<ScenarioCell>,
    /// Max L∞ input-vs-witness perturbation (the witness displacement
    /// bound; carried through shrinks and into `meta.txt`).
    pub bound: f64,
}

impl Scenario {
    /// Captures a witness as a scenario.
    pub fn from_witness(w: &Witness) -> Scenario {
        let design = &w.design;
        let legal_of = |id: CellId| w.legal.iter().find(|&&(c, _)| c == id).map(|&(_, p)| p);
        let cells = design
            .movable_cells()
            .map(|id| {
                let c = design.cell(id);
                ScenarioCell {
                    name: c.name().to_string(),
                    w: c.width(),
                    h: c.height(),
                    rail: c.rail(),
                    legal: legal_of(id),
                    input: design.input_position(id),
                }
            })
            .collect();
        Scenario {
            name: design.name().to_string(),
            x0: design.floorplan().bounds().x,
            num_rows: design.floorplan().num_rows(),
            row_width: design.floorplan().bounds().w,
            macros: design.floorplan().blockages().to_vec(),
            cells,
            bound: w.bound,
        }
    }

    /// Captures an arbitrary design (e.g. a corpus reload) as a scenario
    /// with no witness positions.
    pub fn from_design(design: &Design, bound: f64) -> Scenario {
        let cells = design
            .movable_cells()
            .map(|id| {
                let c = design.cell(id);
                ScenarioCell {
                    name: c.name().to_string(),
                    w: c.width(),
                    h: c.height(),
                    rail: c.rail(),
                    legal: None,
                    input: design.input_position(id),
                }
            })
            .collect();
        Scenario {
            name: design.name().to_string(),
            x0: design.floorplan().bounds().x,
            num_rows: design.floorplan().num_rows(),
            row_width: design.floorplan().bounds().w,
            macros: design.floorplan().blockages().to_vec(),
            cells,
            bound,
        }
    }

    /// Rebuilds the design. Deterministic: same scenario, same design.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from design validation (a shrink candidate
    /// can become degenerate; callers treat that as "candidate rejected").
    pub fn build(&self) -> Result<Design, DbError> {
        let rows = vec![Row::new(self.x0, self.row_width); self.num_rows.max(1) as usize];
        let mut b = DesignBuilder::with_rows(rows);
        b.set_name(self.name.clone());
        for (k, m) in self.macros.iter().enumerate() {
            b.add_fixed(format!("macro_{k}"), *m);
        }
        for c in &self.cells {
            let id = b.add_cell_with_rail(c.name.clone(), c.w, c.h, c.rail);
            b.set_input_position(id, c.input.0, c.input.1);
        }
        b.finish()
    }

    /// The witness placement keyed by the ids `build()` assigns, or `None`
    /// when any cell lacks one (corpus reloads).
    pub fn witness_positions(&self, design: &Design) -> Option<Vec<(CellId, SitePoint)>> {
        design
            .movable_cells()
            .zip(&self.cells)
            .map(|(id, c)| c.legal.map(|p| (id, p)))
            .collect()
    }

    /// The same scenario translated `dx` sites to the right: row origin,
    /// macros, witness positions, and input positions all shift together,
    /// so a translation-equivariant legalizer must produce the base
    /// placement shifted by exactly `dx`.
    pub fn translated(&self, dx: i32) -> Scenario {
        let mut t = self.clone();
        t.name = format!("{}_dx{dx}", self.name);
        t.x0 += dx;
        for m in &mut t.macros {
            m.x += dx;
        }
        for c in &mut t.cells {
            if let Some(p) = &mut c.legal {
                p.x += dx;
            }
            c.input.0 += f64::from(dx);
        }
        t
    }

    /// Average Manhattan distance (sites + rows) between input positions
    /// and the witness placement — what an ideal legalizer could achieve.
    pub fn witness_avg_disp(&self) -> Option<f64> {
        if self.cells.is_empty() {
            return Some(0.0);
        }
        let mut total = 0.0;
        for c in &self.cells {
            let p = c.legal?;
            total += (c.input.0 - f64::from(p.x)).abs() + (c.input.1 - f64::from(p.y)).abs();
        }
        Some(total / self.cells.len() as f64)
    }

    /// Writes the scenario as a corpus fixture: Bookshelf files plus a
    /// `meta.txt` with the replay parameters.
    ///
    /// # Errors
    ///
    /// Any I/O or serialization failure.
    pub fn write_corpus(&self, dir: &Path, meta: &[(&str, String)]) -> Result<(), String> {
        let design = self.build().map_err(|e| e.to_string())?;
        bookshelf::write(&design, dir, "repro").map_err(|e| e.to_string())?;
        let mut text = String::new();
        let _ = writeln!(text, "bound: {}", self.bound);
        for (k, v) in meta {
            let _ = writeln!(text, "{k}: {v}");
        }
        std::fs::write(dir.join("meta.txt"), text).map_err(|e| e.to_string())
    }

    /// Reads a corpus fixture written by [`Scenario::write_corpus`].
    ///
    /// # Errors
    ///
    /// Missing or malformed fixture files.
    pub fn read_corpus(dir: &Path) -> Result<(Scenario, Vec<(String, String)>), String> {
        let design = bookshelf::read(&dir.join("repro.aux")).map_err(|e| e.to_string())?;
        let meta_text = std::fs::read_to_string(dir.join("meta.txt")).map_err(|e| e.to_string())?;
        let mut meta = Vec::new();
        let mut bound = 0.0f64;
        for line in meta_text.lines() {
            if let Some((k, v)) = line.split_once(':') {
                let (k, v) = (k.trim().to_string(), v.trim().to_string());
                if k == "bound" {
                    bound = v.parse().map_err(|_| format!("bad bound {v}"))?;
                }
                meta.push((k, v));
            }
        }
        Ok((Scenario::from_design(&design, bound), meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrl_synth::{generate_witness, WitnessConfig};
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
        let dir = std::env::temp_dir().join(format!("mrl_fuzz_scn_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }

    fn sample() -> Scenario {
        let w = generate_witness(&WitnessConfig::new(11).with_cells(60).with_macros(2)).unwrap();
        Scenario::from_witness(&w)
    }

    #[test]
    fn build_reproduces_the_witness_design() {
        let w = generate_witness(&WitnessConfig::new(5).with_cells(50)).unwrap();
        let s = Scenario::from_witness(&w);
        let d = s.build().unwrap();
        assert_eq!(d.num_movable(), w.design.num_movable());
        for (a, b) in w.design.movable_cells().zip(d.movable_cells()) {
            assert_eq!(w.design.input_position(a), d.input_position(b));
            assert_eq!(w.design.cell(a).rail(), d.cell(b).rail());
        }
        // The carried witness stays legal on the rebuilt design.
        let legal = s.witness_positions(&d).unwrap();
        let mut st = mrl_db::PlacementState::new(&d);
        for (id, p) in legal {
            st.place(&d, id, p).unwrap();
        }
    }

    #[test]
    fn translation_shifts_everything() {
        let s = sample();
        let t = s.translated(9);
        assert_eq!(t.x0, s.x0 + 9);
        assert_eq!(t.macros[0].x, s.macros[0].x + 9);
        assert_eq!(t.cells[3].input.0, s.cells[3].input.0 + 9.0);
        assert_eq!(t.cells[3].legal.unwrap().x, s.cells[3].legal.unwrap().x + 9);
        // Translated scenarios still build (rows carry the new origin).
        let d = t.build().unwrap();
        assert_eq!(d.floorplan().bounds().x, s.x0 + 9);
    }

    #[test]
    fn corpus_round_trip_preserves_geometry() {
        let s = sample();
        let dir = tmpdir("rt");
        s.write_corpus(&dir, &[("kind", "Test".into())]).unwrap();
        let (back, meta) = Scenario::read_corpus(&dir).unwrap();
        assert_eq!(back.num_rows, s.num_rows);
        assert_eq!(back.cells.len(), s.cells.len());
        assert_eq!(back.bound, s.bound);
        assert!(meta.iter().any(|(k, v)| k == "kind" && v == "Test"));
        for (a, b) in s.cells.iter().zip(&back.cells) {
            assert_eq!((a.w, a.h, a.rail), (b.w, b.h, b.rail));
            assert!((a.input.0 - b.input.0).abs() < 1e-5);
        }
    }

    #[test]
    fn witness_avg_disp_none_without_witness() {
        let mut s = sample();
        assert!(s.witness_avg_disp().is_some());
        s.cells[0].legal = None;
        assert!(s.witness_avg_disp().is_none());
    }
}
