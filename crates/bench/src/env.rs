//! Strict environment-knob parsing shared by the figure drivers and examples.
//!
//! The two `FS_BENCH_*` knobs (`FS_BENCH_MESSAGES`, `FS_BENCH_DEGRADED`) and
//! the examples' `RR_*` and `A2_*` variables follow one contract: an *unset*
//! knob takes its documented default, but a *set* knob must parse — a
//! malformed value aborts the run with exit code 2 and a message naming the
//! knob, the offending value and the expected shape.  CI diffs the drivers'
//! output against the committed figures, so a typo'd knob silently falling
//! back to its default would compare the wrong run.

use std::fmt::Display;
use std::str::FromStr;

/// Exit code for a malformed environment knob.
pub const BAD_KNOB_EXIT: i32 = 2;

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(BAD_KNOB_EXIT);
}

/// Parses a scalar knob value; `Err` carries the user-facing message.
pub fn parse_scalar<T>(name: &str, raw: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    raw.trim().parse::<T>().map_err(|e| {
        format!(
            "invalid {name}=`{raw}`: {e} (expected a {})",
            std::any::type_name::<T>()
        )
    })
}

/// Parses a `0`/`1` boolean knob; `Err` carries the user-facing message.
pub fn parse_flag(name: &str, raw: &str) -> Result<bool, String> {
    match raw.trim() {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("invalid {name}=`{raw}`: expected `0` or `1`")),
    }
}

/// A `u64` knob: default when unset, exit 2 when set but malformed.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => parse_scalar(name, &raw).unwrap_or_else(|m| fail(&m)),
    }
}

/// A `0`/`1` knob: default when unset, exit 2 on anything else.
pub fn env_flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => parse_flag(name, &raw).unwrap_or_else(|m| fail(&m)),
    }
}

/// A comma-separated `u64` list knob, each item read as [`env_u64`] reads.
pub fn env_u64_list(name: &str, default: &[u64]) -> Vec<u64> {
    let Ok(raw) = std::env::var(name) else {
        return default.to_vec();
    };
    let list: Result<_, _> = raw.split(',').map(|s| parse_scalar(name, s)).collect();
    list.unwrap_or_else(|m| fail(&m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse_or_explain() {
        assert_eq!(parse_scalar::<u64>("K", "42"), Ok(42));
        assert_eq!(parse_scalar::<f64>("K", " 0.25 "), Ok(0.25));
        let err = parse_scalar::<u64>("K", "4x2").unwrap_err();
        assert!(err.contains("K=`4x2`"), "{err}");
    }

    #[test]
    fn flags_accept_only_zero_and_one() {
        assert_eq!(parse_flag("K", "0"), Ok(false));
        assert_eq!(parse_flag("K", "1"), Ok(true));
        assert!(parse_flag("K", "true").is_err());
        assert!(parse_flag("K", "").is_err());
    }
}
