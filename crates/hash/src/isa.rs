//! Run-time choice of the vector instruction set a loop is compiled for.
//!
//! The workspace is built for baseline x86-64 (SSE2). A loop that pays
//! off on wider vectors — the AMS sign limb kernel
//! ([`SignBank`](crate::kwise::SignBank)), the block hash
//! ([`hash_keys`](crate::mix::hash_keys)), a net member's block
//! projection — is written once, as a [`Kernel`] whose `run` is
//! `#[inline(always)]`, and handed to [`Features::widest`]. `run` is then
//! inlined into each of three `#[target_feature]` functions, so the same
//! source is compiled for AVX-512 (F and DQ: `vpmullq`, the 64-bit lane
//! product), for AVX-512 F alone and for AVX2, and each kernel runs the
//! first of its own preference order that the [`Features`] it is handed
//! hold; with none of them it runs as compiled for the baseline. (A
//! closure would not do: called from three places, it may be compiled
//! once, for the baseline, and called from all three.)
//!
//! [`Features::detect`] asks the CPU which it has. A caller that runs
//! kernels in a loop — an α-net sweep, one block per member — asks once
//! and hands the answer down, so a kernel call costs one match.
//!
//! This is the crate's one `unsafe` call: a `#[target_feature]`
//! function may only be called where its features are present, and a
//! [`Features`] holds only features `is_x86_feature_detected!` found.

/// A loop to compile once per instruction set: [`Features::widest`] runs
/// it.
pub trait Kernel {
    /// What the loop returns.
    type Output;

    /// The loop. Implementations mark it `#[inline(always)]`, or it is
    /// compiled once, for the baseline.
    fn run(self) -> Self::Output;
}

const AVX2: u8 = 1;
const AVX512F: u8 = 2;
const AVX512DQ: u8 = 4;

/// The instruction sets a kernel is compiled for, beyond the baseline;
/// each one's value is the features its `#[target_feature]` function
/// enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Isa {
    /// AVX-512 F and DQ: eight lanes and `vpmullq`, the 64-bit lane
    /// product.
    Avx512 = AVX512F | AVX512DQ,
    /// AVX-512 F alone, for a kernel whose products are all of 32-bit
    /// halves (`vpmuludq`): with DQ on, LLVM picks the three-µop
    /// `vpmullq` for those too (the sign kernel measured 8% slower).
    Avx512F = AVX512F,
    /// AVX2: four lanes, a 64-bit lane product built from 32-bit ones.
    Avx2 = AVX2,
}

impl Isa {
    /// What [`Features::widest`] tries, widest first.
    pub(crate) const WIDEST_FIRST: [Isa; 2] = [Isa::Avx512, Isa::Avx2];
}

/// The vector features a kernel build may use: what this CPU was found
/// to have, or fewer. Only [`detect`](Self::detect) makes one from the
/// CPU; every other is that one narrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features(u8);

impl Features {
    /// The features this CPU has, asked now (a cached load per feature).
    #[cfg(target_arch = "x86_64")]
    pub fn detect() -> Self {
        use std::is_x86_feature_detected as has;
        let found = [has!("avx2"), has!("avx512f"), has!("avx512dq")];
        let bits = [AVX2, AVX512F, AVX512DQ].into_iter().zip(found);
        Self(bits.filter(|&(_, found)| found).map(|(bit, _)| bit).sum())
    }

    /// No vector feature off x86-64: every kernel runs its baseline build.
    #[cfg(not(target_arch = "x86_64"))]
    pub fn detect() -> Self {
        Self(0)
    }

    /// `kernel`, compiled for the widest instruction set these features
    /// allow (see the [module docs](self)), else for the baseline. What
    /// it computes must not depend on which: the choice is the CPU's, so
    /// only speed may.
    #[inline]
    pub fn widest<K: Kernel>(self, kernel: K) -> K::Output {
        match self.first(&Isa::WIDEST_FIRST) {
            Some(found) => found.run(kernel),
            None => kernel.run(),
        }
    }

    /// The first of `isas` these features allow.
    #[inline]
    pub(crate) fn first(self, isas: &[Isa]) -> Option<Found> {
        isas.iter().copied().find(|&isa| self.allow(isa)).map(Found)
    }

    /// Whether these features hold every one `isa`'s build enables.
    #[inline]
    fn allow(self, isa: Isa) -> bool {
        isa as u8 & self.0 == isa as u8
    }

    /// Every build of `kernel` that [`widest`](Self::widest) may run and
    /// these features allow, by name, each with the features narrowed so
    /// that it runs exactly that build; prints which builds those are and
    /// which these features lack. For tests that run every kernel
    /// instantiation a CPU can, whichever it would pick.
    #[doc(hidden)]
    pub fn each_build(self, kernel: &str) -> Vec<(String, Features)> {
        self.each_build_of(kernel, &Isa::WIDEST_FIRST)
    }

    /// [`each_build`](Self::each_build) of a kernel that prefers `isas`:
    /// the baseline first, then each of `isas` these features allow.
    pub(crate) fn each_build_of(self, kernel: &str, isas: &[Isa]) -> Vec<(String, Features)> {
        let (ran, lacks): (Vec<Isa>, Vec<Isa>) = isas.iter().partition(|&&isa| self.allow(isa));
        println!("{kernel}: ran the baseline and {ran:?} builds; this CPU lacks {lacks:?}");
        let mut builds = vec![("baseline".to_string(), Features(0))];
        builds.extend(
            ran.iter()
                .map(|&isa| (format!("{isa:?}"), Features(isa as u8))),
        );
        builds
    }
}

/// An instruction set a [`Features`] holds: only [`Features::first`]
/// makes one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Found(Isa);

impl Found {
    /// `kernel`, compiled for this instruction set.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    #[inline]
    pub(crate) fn run<K: Kernel>(self, kernel: K) -> K::Output {
        // SAFETY: a `Found` is made only from a `Features` that holds
        // every feature its `#[target_feature]` function enables, and a
        // `Features` holds only features `is_x86_feature_detected!` found
        // on this CPU, which is all such a function requires.
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
