//! Synthetic XML datasets standing in for the paper's evaluation data
//! (§6.1, Table 1).
//!
//! The paper evaluates on three documents: **XMark** (synthetic auction
//! site, ~103k elements, regular/uniform structure), **IMDB** (real movie
//! data, ~103k elements, skewed and correlated), and **SwissProt**
//! (protein annotations, ~70k elements, moderate regularity). The real
//! IMDB/SwissProt snapshots are not redistributable, so this crate
//! generates documents that preserve the properties the evaluation
//! exercises (see DESIGN.md §3):
//!
//! * [`xmark`] follows the published XMark DTD skeleton (regions / people
//!   / auctions / categories, including the recursive `parlist`
//!   description structure) with **uniform** distributions — the paper
//!   attributes XMark's uniformly low estimation error to this regularity.
//! * [`imdb`] generates movies whose actor/producer/keyword fanouts are
//!   **Zipf-skewed and correlated with the movie genre** (the paper's own
//!   motivating example: action movies have more actors and producers
//!   than documentaries), plus genre-correlated years.
//! * [`sprot`] generates protein entries with reference/feature
//!   substructure of intermediate regularity.
//!
//! All generators are deterministic given their seed.

mod figures;
mod imdb;
mod sprot;
mod xmark;
mod zipf;

pub use figures::{bibliography, figure4_a, figure4_b, worked_example};
pub use imdb::{imdb, ImdbConfig};
pub use sprot::{sprot, SprotConfig};
pub use xmark::{xmark, XMarkConfig};
pub use zipf::Zipf;

use xtwig_xml::Document;

/// The three evaluation datasets, sized like the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// XMark-like auction data (~103k elements at scale 1).
    XMark,
    /// IMDB-like movie data (~103k elements at scale 1).
    Imdb,
    /// SwissProt-like protein data (~70k elements at scale 1).
    SProt,
}

impl Dataset {
    /// Generates the dataset at the given scale (1.0 ≈ the paper's
    /// element counts) with a fixed per-dataset seed.
    pub fn generate(self, scale: f64) -> Document {
        match self {
            Dataset::XMark => xmark(XMarkConfig {
                scale,
                seed: 0x71A2,
            }),
            Dataset::Imdb => imdb(ImdbConfig::scaled(scale, 0x1111)),
            Dataset::SProt => sprot(SprotConfig::scaled(scale, 0x59A7)),
        }
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::XMark => "XMark",
            Dataset::Imdb => "IMDB",
            Dataset::SProt => "SProt",
        }
    }

    /// All three datasets in the paper's column order.
    pub const ALL: [Dataset; 3] = [Dataset::XMark, Dataset::Imdb, Dataset::SProt];
}

#[cfg(test)]
mod tests {
    use super::Dataset;
    use xtwig_xml::{Document, NodeId};

    /// The descendants of `n` in document order, by recursion over the
    /// children.
    fn recursive_descendants(doc: &Document, n: NodeId, out: &mut Vec<NodeId>) {
        for c in doc.children(n) {
            out.push(c);
            recursive_descendants(doc, c, out);
        }
    }

    #[test]
    fn descendants_match_a_recursive_walk_on_every_generator() {
        for ds in Dataset::ALL {
            let doc = ds.generate(0.01);
            for n in doc.nodes() {
                let mut expected = Vec::new();
                recursive_descendants(&doc, n, &mut expected);
                let walked: Vec<NodeId> = doc.descendants(n).collect();
                assert_eq!(walked, expected, "{} below {n}", ds.name());
            }
        }
    }
}
