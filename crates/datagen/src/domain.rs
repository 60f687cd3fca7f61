//! Domain registry and the shared machinery all corpus generators use:
//! field specifications with phrase banks and presence probabilities, and
//! the vendor-template model.

use crate::layout::Style;
use fieldswap_docmodel::{BaseType, Corpus, FieldDef, Schema};
use fieldswap_ocr::{NoiseModel, NoiseParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The six document types this crate can generate. The first five mirror
/// the paper's evaluation datasets; `Invoices` is the out-of-domain corpus
/// used to pre-train the importance model (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// FARA filing cover pages (public benchmark in the paper).
    Fara,
    /// FCC application cover sheets (public benchmark in the paper).
    FccForms,
    /// Brokerage account statements (proprietary in the paper).
    Brokerage,
    /// Earnings statements / paystubs (proprietary in the paper).
    Earnings,
    /// Mortgage / loan payment statements (proprietary in the paper).
    LoanPayments,
    /// Out-of-domain invoices, used only for pre-training.
    Invoices,
}

impl Domain {
    /// The five evaluation domains plus invoices.
    pub const ALL: [Domain; 6] = [
        Domain::Fara,
        Domain::FccForms,
        Domain::Brokerage,
        Domain::Earnings,
        Domain::LoanPayments,
        Domain::Invoices,
    ];

    /// The five domains evaluated in the paper (Table I order).
    pub const EVAL: [Domain; 5] = [
        Domain::Fara,
        Domain::FccForms,
        Domain::Brokerage,
        Domain::Earnings,
        Domain::LoanPayments,
    ];

    /// Parses a domain name, case-insensitively: the model keys the
    /// service files models under (`fcc`, `loans`) and the longer
    /// spellings (`fcc_forms`, `loan`, `loan_payments`, ...).
    pub fn parse(name: &str) -> Option<Domain> {
        match name.to_lowercase().as_str() {
            "fara" => Some(Domain::Fara),
            "fcc" | "fcc_forms" | "fccforms" => Some(Domain::FccForms),
            "brokerage" => Some(Domain::Brokerage),
            "earnings" => Some(Domain::Earnings),
            "loan" | "loans" | "loan_payments" | "loanpayments" => Some(Domain::LoanPayments),
            "invoices" => Some(Domain::Invoices),
            _ => None,
        }
    }

    /// Human-readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Domain::Fara => "FARA",
            Domain::FccForms => "FCC Forms",
            Domain::Brokerage => "Brokerage Statements",
            Domain::Earnings => "Earnings",
            Domain::LoanPayments => "Loan Payments",
            Domain::Invoices => "Invoices",
        }
    }

    /// `(train pool size, test set size)` from Table I. Invoices uses the
    /// paper's "approximately 5000 training documents" for pre-training and
    /// a nominal test size.
    pub fn paper_sizes(&self) -> (usize, usize) {
        match self {
            Domain::Fara => (200, 300),
            Domain::FccForms => (200, 300),
            Domain::Brokerage => (294, 186),
            Domain::Earnings => (2000, 1847),
            Domain::LoanPayments => (2000, 815),
            Domain::Invoices => (5000, 500),
        }
    }

    /// The generator for this domain.
    pub fn generator(&self) -> Box<dyn DomainGenerator> {
        match self {
            Domain::Fara => Box::new(crate::fara::FaraGen),
            Domain::FccForms => Box::new(crate::fcc::FccGen),
            Domain::Brokerage => Box::new(crate::brokerage::BrokerageGen),
            Domain::Earnings => Box::new(crate::earnings::EarningsGen),
            Domain::LoanPayments => Box::new(crate::loan::LoanGen),
            Domain::Invoices => Box::new(crate::invoices::InvoicesGen),
        }
    }
}

/// Corpus-generation options.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Size of the vendor (template) pool documents are drawn from.
    pub n_vendors: usize,
    /// OCR noise applied after rendering.
    pub noise: NoiseParams,
    /// Worker threads for the per-document render phase (0 = all cores,
    /// 1 = serial). Every document derives its randomness from its own
    /// index and noise is applied in a serial in-order pass afterwards, so
    /// any value produces byte-identical corpora.
    pub jobs: usize,
}

impl Default for GenOptions {
    fn default() -> Self {
        Self {
            n_vendors: 192,
            noise: NoiseParams::default(),
            jobs: 1,
        }
    }
}

/// A corpus generator for one document type.
pub trait DomainGenerator {
    /// Which domain this generates.
    fn domain(&self) -> Domain;

    /// The domain's extraction schema.
    fn schema(&self) -> Schema;

    /// The static field specifications (name, type, phrase bank, presence).
    fn field_specs(&self) -> &'static [FieldSpec];

    /// Generates `n` labeled documents deterministically from `seed`.
    fn generate(&self, seed: u64, n: usize, opts: &GenOptions) -> Corpus;

    /// The ground-truth phrase bank: for each field, the synonyms the
    /// generator may use. This is what a *human expert* would write down
    /// after inspecting documents (Section III); it also serves as an
    /// oracle in tests.
    fn phrase_bank(&self) -> Vec<(String, Vec<String>)> {
        self.field_specs()
            .iter()
            .map(|f| {
                (
                    f.name.to_string(),
                    f.phrases.iter().map(|p| p.to_string()).collect(),
                )
            })
            .collect()
    }
}

/// Static description of one field: schema info plus generation knobs.
#[derive(Debug, Clone, Copy)]
pub struct FieldSpec {
    /// Dotted field name.
    pub name: &'static str,
    /// Base type (drives Table II and type-to-type mappings).
    pub base_type: BaseType,
    /// Key-phrase synonym bank. Empty for deliberately phrase-less fields
    /// (e.g. `company_name` in a page corner).
    pub phrases: &'static [&'static str],
    /// Probability that a document contains the field.
    pub presence: f64,
}

impl FieldSpec {
    /// Shorthand constructor used by the domain tables.
    pub const fn new(
        name: &'static str,
        base_type: BaseType,
        phrases: &'static [&'static str],
        presence: f64,
    ) -> Self {
        Self {
            name,
            base_type,
            phrases,
            presence,
        }
    }
}

/// Builds a [`Schema`] from field specs.
pub fn schema_from_specs(domain: &str, specs: &[FieldSpec]) -> Schema {
    Schema::new(
        domain,
        specs
            .iter()
            .map(|f| FieldDef::new(f.name, f.base_type))
            .collect(),
    )
}

/// SplitMix64: cheap, well-distributed seed mixing.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines seed components into one stream seed.
pub fn seed_for(domain: Domain, corpus_seed: u64, stream: u64) -> u64 {
    mix(mix(corpus_seed ^ (domain as u64).wrapping_mul(0x100_0193)) ^ stream)
}

/// A vendor: one template in the pool. Fixes typography, a layout variant,
/// and one phrase synonym per field for all documents it "issues".
#[derive(Debug, Clone)]
pub struct Vendor {
    /// Vendor index within the pool.
    pub id: usize,
    /// Typography and spacing.
    pub style: Style,
    /// Layout variant selector (interpreted per domain).
    pub variant: usize,
    /// Chosen phrase index per field (into each field's bank); 0 for
    /// fields with empty banks.
    phrase_choice: Vec<usize>,
}

impl Vendor {
    /// Deterministically materializes vendor `id` of `domain`.
    pub fn sample(
        domain: Domain,
        corpus_seed: u64,
        id: usize,
        specs: &[FieldSpec],
        n_variants: usize,
    ) -> Self {
        // Vendors are tied to the domain only (not the corpus seed), so a
        // train pool and test set generated from different seeds share the
        // same vendor pool — exactly the "same document type, unseen
        // layouts" regime of the paper.
        let _ = corpus_seed;
        let mut rng = StdRng::seed_from_u64(seed_for(domain, 0xFEED, id as u64));
        let style = Style::sample(&mut rng);
        let variant = rng.gen_range(0..n_variants.max(1));
        let phrase_choice = specs
            .iter()
            .map(|f| {
                if f.phrases.is_empty() {
                    0
                } else {
                    rng.gen_range(0..f.phrases.len())
                }
            })
            .collect();
        Self {
            id,
            style,
            variant,
            phrase_choice,
        }
    }

    /// The phrase this vendor uses for field index `i`, or `""` when the
    /// field has no key phrase.
    pub fn phrase<'a>(&self, specs: &'a [FieldSpec], i: usize) -> &'a str {
        let bank = specs[i].phrases;
        if bank.is_empty() {
            ""
        } else {
            bank[self.phrase_choice[i]]
        }
    }
}

/// Shared driver: renders `n` documents by sampling a vendor and a
/// present-field mask per document, delegating page rendering to `render`,
/// and applying OCR noise.
///
/// Rendering fans out over `opts.jobs` workers — each document's
/// randomness comes from a per-index rng, so the render phase is
/// embarrassingly parallel. The OCR noise model carries sequential rng
/// state across documents, so it runs as a serial in-order pass; corpora
/// are byte-identical for every jobs setting.
pub fn drive<F>(
    domain: Domain,
    specs: &'static [FieldSpec],
    n_variants: usize,
    seed: u64,
    n: usize,
    opts: &GenOptions,
    render: F,
) -> Corpus
where
    F: Fn(&mut StdRng, &Vendor, &[bool], String) -> fieldswap_docmodel::Document + Sync,
{
    let schema = schema_from_specs(domain_key(domain), specs);
    let vendors: Vec<Vendor> = (0..opts.n_vendors)
        .map(|v| Vendor::sample(domain, seed, v, specs, n_variants))
        .collect();
    let pool = fieldswap_parallel::WorkerPool::new(opts.jobs);
    let slots: Vec<std::sync::Mutex<Option<fieldswap_docmodel::Document>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    pool.fill_slots(&slots, |_, i| {
        let mut rng = StdRng::seed_from_u64(seed_for(domain, seed, i as u64));
        let vendor = &vendors[rng.gen_range(0..vendors.len())];
        let present: Vec<bool> = specs.iter().map(|f| rng.gen_bool(f.presence)).collect();
        let id = format!("{}-{i:05}", domain_key(domain));
        render(&mut rng, vendor, &present, id)
    });
    let mut noise = NoiseModel::new(opts.noise, seed_for(domain, seed, 0xA0C));
    let mut documents = Vec::with_capacity(n);
    for slot in slots {
        let mut doc = slot
            .into_inner()
            .expect("render slot poisoned")
            .expect("every slot filled");
        noise.apply(&mut doc);
        documents.push(doc);
    }
    Corpus::new(schema, documents)
}

fn domain_key(domain: Domain) -> &'static str {
    match domain {
        Domain::Fara => "fara",
        Domain::FccForms => "fcc",
        Domain::Brokerage => "brokerage",
        Domain::Earnings => "earnings",
        Domain::LoanPayments => "loan",
        Domain::Invoices => "invoices",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_spelling() {
        let spellings = [
            ("fara", Domain::Fara),
            ("fcc", Domain::FccForms),
            ("fcc_forms", Domain::FccForms),
            ("fccforms", Domain::FccForms),
            ("brokerage", Domain::Brokerage),
            ("earnings", Domain::Earnings),
            ("loan", Domain::LoanPayments),
            ("loans", Domain::LoanPayments),
            ("loan_payments", Domain::LoanPayments),
            ("loanpayments", Domain::LoanPayments),
            ("invoices", Domain::Invoices),
        ];
        for (name, domain) in spellings {
            assert_eq!(Domain::parse(name), Some(domain), "{name}");
            assert_eq!(Domain::parse(&name.to_uppercase()), Some(domain), "{name}");
        }
        assert_eq!(Domain::parse("Fcc_Forms"), Some(Domain::FccForms));
        assert_eq!(Domain::parse("nope"), None);
        assert_eq!(Domain::parse(""), None);
    }

    #[test]
    fn mix_spreads_bits() {
        assert_ne!(mix(0), mix(1));
        assert_ne!(mix(1), mix(2));
        // SplitMix is a bijection; tiny sanity check for distinctness.
        let outs: std::collections::HashSet<u64> = (0..1000).map(mix).collect();
        assert_eq!(outs.len(), 1000);
    }

    #[test]
    fn vendor_is_deterministic_and_seed_independent() {
        let specs = crate::earnings::EarningsGen.field_specs();
        let a = Vendor::sample(Domain::Earnings, 1, 3, specs, 2);
        let b = Vendor::sample(Domain::Earnings, 999, 3, specs, 2);
        assert_eq!(a.phrase_choice, b.phrase_choice);
        assert_eq!(a.variant, b.variant);
    }

    #[test]
    fn vendors_differ_from_each_other() {
        let specs = crate::earnings::EarningsGen.field_specs();
        let choices: Vec<Vec<usize>> = (0..8)
            .map(|v| Vendor::sample(Domain::Earnings, 0, v, specs, 2).phrase_choice)
            .collect();
        let distinct: std::collections::HashSet<_> = choices.iter().collect();
        assert!(distinct.len() > 1, "vendor phrase choices should vary");
    }

    #[test]
    fn phrase_for_empty_bank_is_empty() {
        const SPECS: [FieldSpec; 1] = [FieldSpec::new("x", BaseType::String, &[], 1.0)];
        let v = Vendor::sample(Domain::Fara, 0, 0, &SPECS, 1);
        assert_eq!(v.phrase(&SPECS, 0), "");
    }

    #[test]
    fn domain_names_match_paper() {
        assert_eq!(Domain::Brokerage.name(), "Brokerage Statements");
        assert_eq!(Domain::Earnings.name(), "Earnings");
    }
}
