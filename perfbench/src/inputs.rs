//! Workload inputs: generated designs written as LEF/DEF files.
//!
//! Every design is the named profile at its own generator seed. The
//! benchmark's `--seed` relabels each instance, net and the design in
//! the written DEF, so every seed gives different input files that
//! describe the same placement problem. The generator seed stays fixed
//! because the flow's run time is not steady across generated designs:
//! on the `ispd18_test6` analogue at 1/100 the CR&P stage took 1.2 s to
//! 19.5 s over generator seeds 1..5, and no run length averages that out.

use crp_workload::Profile;
use std::path::{Path, PathBuf};

/// A design on disk.
#[derive(Debug, Clone)]
pub struct DesignFiles {
    /// Technology and macros.
    pub lef: PathBuf,
    /// Placed (or to-be-placed) design.
    pub def: PathBuf,
}

/// Generates `profile` and writes `<stem>.lef` / `<stem>.def` under
/// `dir`, relabeled by `seed`.
///
/// # Errors
///
/// Returns the I/O error of a failed write.
pub fn write_design(
    profile: &Profile,
    seed: u64,
    dir: &Path,
    stem: &str,
) -> std::io::Result<DesignFiles> {
    let design = profile.generate();
    let files = DesignFiles {
        lef: dir.join(format!("{stem}.lef")),
        def: dir.join(format!("{stem}.def")),
    };
    std::fs::write(&files.lef, crp_lefdef::write_lef(&design))?;
    std::fs::write(&files.def, relabel(&crp_lefdef::write_def(&design), seed))?;
    Ok(files)
}

/// 32-bit FNV-1a of `name`, keyed by `seed`.
fn tag(seed: u64, name: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in seed.to_le_bytes().iter().chain(name.as_bytes()) {
        h ^= u32::from(*b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn rename(seed: u64, name: &str) -> String {
    format!("{name}_{:08x}", tag(seed, name))
}

/// Renames the design, every component and every net of a DEF written
/// by `crp_lefdef::write_def`. Order and geometry are unchanged, so the
/// parsed design has the same ids and the flow does the same work.
pub fn relabel(def: &str, seed: u64) -> String {
    let mut out = String::with_capacity(def.len() + def.len() / 4);
    let mut section = "";
    for line in def.lines() {
        let mut toks: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        match toks.first().map(String::as_str) {
            Some("DESIGN") if toks.len() > 1 => toks[1] = rename(seed, &toks[1]),
            Some("COMPONENTS" | "PINS" | "NETS") => section = line.split(' ').next().unwrap_or(""),
            Some("END") => section = "",
            Some("-") if toks.len() > 1 => match section {
                "COMPONENTS" => toks[1] = rename(seed, &toks[1]),
                "PINS" => {
                    if let Some(i) = toks.iter().position(|t| t == "NET") {
                        toks[i + 1] = rename(seed, &toks[i + 1]);
                    }
                }
                "NETS" => {
                    toks[1] = rename(seed, &toks[1]);
                    for i in 2..toks.len().saturating_sub(1) {
                        if toks[i] == "(" && toks[i + 1] != "PIN" {
                            toks[i + 1] = rename(seed, &toks[i + 1]);
                        }
                    }
                }
                _ => {}
            },
            _ => {}
        }
        out.push_str(&toks.join(" "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabeled_def_parses_to_the_same_problem() {
        let profile = crp_workload::ispd18_profiles()[0].scaled(400.0);
        let design = profile.generate();
        let tech = crp_lefdef::parse_lef(&crp_lefdef::write_lef(&design)).unwrap();
        let def = crp_lefdef::write_def(&design);
        let a = relabel(&def, 1);
        let b = relabel(&def, 2);
        assert_ne!(a, b);
        assert_eq!(a, relabel(&def, 1));
        let pa = crp_lefdef::parse_def(&a, &tech).unwrap();
        assert_eq!(pa.num_cells(), design.num_cells());
        assert_eq!(pa.num_nets(), design.num_nets());
        for (id, cell) in design.cells() {
            assert_eq!(pa.cell(id).pos, cell.pos);
            assert_ne!(pa.cell(id).name, cell.name);
        }
        for (id, net) in design.nets() {
            assert_eq!(pa.net(id).pins.len(), net.pins.len());
        }
    }
}
