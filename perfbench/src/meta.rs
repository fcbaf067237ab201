//! Field access on the one-line JSON objects the server returns (reply
//! meta and `stats`). They are flat objects of numbers, booleans and
//! strings, so a key scan suffices.

fn raw<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A numeric field, or `None` when absent or not a number.
pub fn num(obj: &str, key: &str) -> Option<f64> {
    raw(obj, key)?.parse().ok()
}

/// A numeric field read as 0 when absent.
pub fn num0(obj: &str, key: &str) -> f64 {
    num(obj, key).unwrap_or(0.0)
}

/// A boolean field.
pub fn flag(obj: &str, key: &str) -> Option<bool> {
    match raw(obj, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// A string field (no escape handling: the fields read here are hex
/// fingerprints and strategy names).
pub fn text<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    raw(obj, key)?.strip_prefix('"')?.strip_suffix('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_flat_fields() {
        let m = r#"{"strategy":"static","results":480,"elapsed_ms":273,"cache_hit":false,"fp":"45f2034df474bc49","x":-1.5}"#;
        assert_eq!(num(m, "results"), Some(480.0));
        assert_eq!(num(m, "x"), Some(-1.5));
        assert_eq!(num(m, "missing"), None);
        assert_eq!(num0(m, "missing"), 0.0);
        assert_eq!(flag(m, "cache_hit"), Some(false));
        assert_eq!(text(m, "fp"), Some("45f2034df474bc49"));
        assert_eq!(text(m, "strategy"), Some("static"));
        // "results" must not match inside "elapsed_ms" or similar keys.
        assert_eq!(num(m, "ms"), None);
    }
}
