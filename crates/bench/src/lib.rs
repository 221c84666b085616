//! The paper's experiments and the helpers they print with.
//!
//! Each module under [`experiments`] regenerates one table or figure of
//! the paper; `hima_cli run <id|all>` runs them.

pub mod experiments;

/// Prints a section header in the common format.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Formats a ratio as `x.xx×`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// Renders a percentage bar for terminal plots.
pub fn bar(fraction: f64, width: usize) -> String {
    let n = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(0.5, 10).len(), 5);
        assert_eq!(bar(2.0, 10).len(), 10);
        assert_eq!(bar(-1.0, 10).len(), 0);
    }

    #[test]
    fn times_formats() {
        assert_eq!(times(1.234), "1.23x");
    }
}
