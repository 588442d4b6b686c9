//! Medians and quartiles over a handful of runs.

/// Sorted copy of `values` (NaN-free input assumed; NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, or `None` for no values.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the "exclusive" method — the default of
/// Python's `statistics.quantiles(values, n=4)`, so a spread computed
/// here matches one computed from the same values there. Fewer than two
/// values have no spread: both quartiles are the value itself.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            Some((q(1), q(3)))
        }
    }
}

/// Interquartile distance as a share of the median (`0` for a zero
/// median, which no benchmark metric has).
#[must_use]
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let med = median(values)?;
    let (q1, q3) = quartiles(values)?;
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}
