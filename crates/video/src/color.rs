//! Named colors used for entity attributes and pixel rendering.
//!
//! The simulated color classifier (`vqpy-models`) recovers a [`NamedColor`]
//! from rendered pixels by nearest-neighbour matching in RGB space, so the
//! palette is chosen to be well separated.

use std::fmt;
use std::str::FromStr;

/// The closed palette of colors entities can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedColor {
    Red,
    Green,
    Blue,
    Black,
    White,
    Gray,
    Yellow,
    Silver,
    Orange,
    Brown,
}

impl NamedColor {
    /// All palette entries, in a stable order.
    pub const ALL: [NamedColor; 10] = [
        NamedColor::Red,
        NamedColor::Green,
        NamedColor::Blue,
        NamedColor::Black,
        NamedColor::White,
        NamedColor::Gray,
        NamedColor::Yellow,
        NamedColor::Silver,
        NamedColor::Orange,
        NamedColor::Brown,
    ];

    /// Canonical RGB value used when rendering entities of this color.
    pub fn rgb(&self) -> [u8; 3] {
        match self {
            NamedColor::Red => [200, 30, 30],
            NamedColor::Green => [30, 170, 60],
            NamedColor::Blue => [40, 70, 200],
            NamedColor::Black => [25, 25, 25],
            NamedColor::White => [235, 235, 235],
            NamedColor::Gray => [120, 120, 120],
            NamedColor::Yellow => [230, 210, 40],
            NamedColor::Silver => [185, 190, 200],
            NamedColor::Orange => [235, 140, 30],
            NamedColor::Brown => [120, 80, 40],
        }
    }

    /// The palette entry whose canonical RGB is closest (L2) to `rgb`.
    pub fn nearest(rgb: [u8; 3]) -> NamedColor {
        let mut best = NamedColor::Gray;
        let mut best_d = u32::MAX;
        for c in NamedColor::ALL {
            let p = c.rgb();
            let d: u32 = (0..3)
                .map(|i| {
                    let diff = p[i] as i32 - rgb[i] as i32;
                    (diff * diff) as u32
                })
                .sum();
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }

    /// Lowercase name, e.g. `"red"`, matching how queries refer to colors.
    pub fn as_str(&self) -> &'static str {
        match self {
            NamedColor::Red => "red",
            NamedColor::Green => "green",
            NamedColor::Blue => "blue",
            NamedColor::Black => "black",
            NamedColor::White => "white",
            NamedColor::Gray => "gray",
            NamedColor::Yellow => "yellow",
            NamedColor::Silver => "silver",
            NamedColor::Orange => "orange",
            NamedColor::Brown => "brown",
        }
    }
}

impl fmt::Display for NamedColor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown color name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseColorError(pub String);

impl fmt::Display for ParseColorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown color name `{}`", self.0)
    }
}

impl std::error::Error for ParseColorError {}

impl FromStr for NamedColor {
    type Err = ParseColorError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        NamedColor::ALL
            .iter()
            .copied()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| ParseColorError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_recovers_canonical() {
        for c in NamedColor::ALL {
            assert_eq!(NamedColor::nearest(c.rgb()), c, "palette entry {c}");
        }
    }

    #[test]
    fn nearest_tolerates_noise() {
        let mut rgb = NamedColor::Red.rgb();
        rgb[0] = rgb[0].saturating_add(10);
        rgb[1] = rgb[1].saturating_sub(5);
        assert_eq!(NamedColor::nearest(rgb), NamedColor::Red);
    }

    #[test]
    fn parse_roundtrip() {
        for c in NamedColor::ALL {
            assert_eq!(c.as_str().parse::<NamedColor>().unwrap(), c);
        }
        assert!("magenta".parse::<NamedColor>().is_err());
    }
}
