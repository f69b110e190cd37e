//! Table 2 — the feature matrix comparing the accelerators.

/// Feature flags of one platform, following Table 2's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Platform name.
    pub name: &'static str,
    /// Application domain string as the table prints it.
    pub domain: &'static str,
    /// Supports multiple distinct kernels in one algorithm.
    pub multi_kernel: bool,
    /// Qualitative bandwidth-utilization class.
    pub bandwidth_utilization: &'static str,
    /// Avoids transferring meta-data at runtime.
    pub no_metadata_transfer: bool,
    /// Storage format string as the table prints it.
    pub storage_format: &'static str,
    /// Cache optimizations for frequently-used vectors.
    pub vector_cache_optimizations: Option<bool>,
    /// Runtime reconfigurability.
    pub reconfigurable: bool,
    /// Resolves limited parallelism in fine granularity.
    pub resolves_limited_parallelism: Option<bool>,
}

/// The Table 2 comparison, one row per platform (ALRESCHA last).
pub const PLATFORM_CAPABILITIES: [Capabilities; 5] = [
    Capabilities {
        name: "graphr",
        domain: "graph",
        multi_kernel: false,
        bandwidth_utilization: "low",
        no_metadata_transfer: false,
        storage_format: "4x4 COO",
        vector_cache_optimizations: None,
        reconfigurable: false,
        resolves_limited_parallelism: None,
    },
    Capabilities {
        name: "outerspace",
        domain: "graph (only SpMV)",
        multi_kernel: false,
        bandwidth_utilization: "moderate",
        no_metadata_transfer: false,
        storage_format: "CSR",
        vector_cache_optimizations: Some(false),
        reconfigurable: false, // only for its cache hierarchy
        resolves_limited_parallelism: None,
    },
    Capabilities {
        name: "memristive",
        domain: "PDE solver",
        multi_kernel: false,
        bandwidth_utilization: "low",
        no_metadata_transfer: false,
        storage_format: "multi-size blocks (64..512)",
        vector_cache_optimizations: None,
        reconfigurable: false,
        resolves_limited_parallelism: Some(false),
    },
    Capabilities {
        name: "gpu-coloring",
        domain: "PDE solver",
        multi_kernel: false,
        bandwidth_utilization: "moderate",
        no_metadata_transfer: false,
        storage_format: "ELL",
        vector_cache_optimizations: Some(false),
        reconfigurable: false,
        resolves_limited_parallelism: Some(true), // instruction-level, pattern-limited
    },
    Capabilities {
        name: "alrescha",
        domain: "graph and PDE solver",
        multi_kernel: true,
        bandwidth_utilization: "high",
        no_metadata_transfer: true,
        storage_format: "8x8 blocking with fine-grained in-block ordering",
        vector_cache_optimizations: Some(true),
        reconfigurable: true,
        resolves_limited_parallelism: Some(true),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alrescha_is_the_only_multi_kernel_platform() {
        let multi: Vec<&str> = PLATFORM_CAPABILITIES
            .iter()
            .filter(|c| c.multi_kernel)
            .map(|c| c.name)
            .collect();
        assert_eq!(multi, vec!["alrescha"]);
    }

    #[test]
    fn alrescha_is_the_only_no_metadata_platform() {
        let none: Vec<&str> = PLATFORM_CAPABILITIES
            .iter()
            .filter(|c| c.no_metadata_transfer)
            .map(|c| c.name)
            .collect();
        assert_eq!(none, vec!["alrescha"]);
    }

    #[test]
    fn lookup_by_name() {
        let find = |name| PLATFORM_CAPABILITIES.iter().find(|c| c.name == name);
        assert!(find("graphr").is_some());
        assert!(find("unknown").is_none());
        assert_eq!(find("alrescha").unwrap().bandwidth_utilization, "high");
    }

    #[test]
    fn table_has_five_rows() {
        assert_eq!(PLATFORM_CAPABILITIES.len(), 5);
    }
}
