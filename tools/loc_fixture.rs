// loc.sh reads 6 production lines in this file, and checks so on every run.
// The test module holds literals that a naive rule misreads: a raw string
// with `\"` in it, and a plain string that ends in `r`.
pub fn name() -> &'static str {
    "bar"
}

#[cfg(test)]
mod tests {
    #[test]
    fn golden_reply() {
        let reply = r#"{"name":"\"\\"}"#;
        if super::name() == "bar" { assert!(!reply.is_empty(), "{reply}") }
    }
}

pub fn after() -> usize {
    name().len()
}
