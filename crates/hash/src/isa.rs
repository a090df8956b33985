//! Run-time choice of the vector instruction set a loop is compiled for.
//!
//! The workspace is built for baseline x86-64 (SSE2). A loop that pays
//! off on wider vectors — the AMS sign limb kernel
//! ([`SignBank`](crate::kwise::SignBank)), the block hash
//! ([`hash_keys`](crate::mix::hash_keys)), a net member's block
//! projection — is written once, as a [`Kernel`] whose `run` is
//! `#[inline(always)]`, and handed to [`widest`]. `run` is then inlined
//! into each of two `#[target_feature]` functions, so the same source is
//! compiled for AVX-512 (F and DQ: `vpmullq`, the 64-bit lane product)
//! and for AVX2, and the CPU is asked at run time, on each call (a cached
//! load), which one it can run; a CPU with neither runs the kernel as
//! compiled for the baseline. (A closure would not do: called from three
//! places, it may be compiled once, for the baseline, and called from
//! all three.)
//!
//! This is the crate's one `unsafe` call: a `#[target_feature]`
//! function may only be called where its features are present, and a
//! `Found` instruction set is made only after `is_x86_feature_detected!`
//! found them.

/// A loop to compile once per instruction set: [`widest`] runs it.
pub trait Kernel {
    /// What the loop returns.
    type Output;

    /// The loop. Implementations mark it `#[inline(always)]`, or it is
    /// compiled once, for the baseline.
    fn run(self) -> Self::Output;
}

/// The instruction sets a kernel is compiled for, beyond the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// AVX-512 F and DQ: eight lanes and `vpmullq`, the 64-bit lane
    /// product.
    Avx512,
    /// AVX-512 F alone, for a kernel whose products are all of 32-bit
    /// halves (`vpmuludq`): with DQ on, LLVM picks the three-µop
    /// `vpmullq` for those too (the sign kernel measured 8% slower).
    Avx512F,
    /// AVX2: four lanes, a 64-bit lane product built from 32-bit ones.
    Avx2,
}

impl Isa {
    /// What [`widest`] tries, widest first.
    pub(crate) const WIDEST_FIRST: [Isa; 2] = [Isa::Avx512, Isa::Avx2];

    /// The first of `isas` this CPU has the features of, asked now.
    pub(crate) fn first_found(isas: &[Isa]) -> Option<Found> {
        isas.iter().copied().find(|isa| isa.found()).map(Found)
    }

    #[cfg(target_arch = "x86_64")]
    fn found(self) -> bool {
        match self {
            Isa::Avx512 => {
                std::is_x86_feature_detected!("avx512f")
                    && std::is_x86_feature_detected!("avx512dq")
            }
            Isa::Avx512F => std::is_x86_feature_detected!("avx512f"),
            Isa::Avx2 => std::is_x86_feature_detected!("avx2"),
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn found(self) -> bool {
        false
    }
}

/// An instruction set this CPU was found to have: only
/// [`Isa::first_found`] makes one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Found(Isa);

impl Found {
    /// `kernel`, compiled for this instruction set.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    pub(crate) fn run<K: Kernel>(self, kernel: K) -> K::Output {
        // SAFETY: a `Found` is made only after `is_x86_feature_detected!`
        // found every feature its `#[target_feature]` function enables on
        // this CPU, which is all such a function requires.
        unsafe {
            match self.0 {
                Isa::Avx512 => with_avx512(kernel),
                Isa::Avx512F => with_avx512f(kernel),
                Isa::Avx2 => with_avx2(kernel),
            }
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) fn run<K: Kernel>(self, kernel: K) -> K::Output {
        kernel.run()
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn with_avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn with_avx512f<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn with_avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

/// `kernel`, compiled for the widest instruction set this CPU has (see
/// the [module docs](self)). What it computes must not depend on which:
/// the choice is the CPU's, so only speed may.
pub fn widest<K: Kernel>(kernel: K) -> K::Output {
    run_on(&Isa::WIDEST_FIRST, kernel)
}

/// `kernel`, compiled for the first of `isas` this CPU has, else for the
/// baseline.
pub(crate) fn run_on<K: Kernel>(isas: &[Isa], kernel: K) -> K::Output {
    match Isa::first_found(isas) {
        Some(found) => found.run(kernel),
        None => kernel.run(),
    }
}
