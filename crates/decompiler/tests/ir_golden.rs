//! Golden digests of the optimized IR and of its interval analysis.
//!
//! Pins the exact text of `optimize`'s output (`Program`'s `Display`:
//! every block, parameter, statement and edge) for 20 small and 20
//! realistic corpus contracts, as Keccak-256 digests. Any change to the
//! constant propagation or dead-code elimination that alters a single
//! statement of the optimized IR of these contracts fails here, so a
//! rewrite of the pass pipeline has to be byte-for-byte equivalent or
//! re-baseline this table on purpose.
//!
//! The same 40 optimized programs also pin `intervals::analyze`: every
//! variable's envelope and every dead edge, one digest per population.
//! A change to how the analysis indexes the IR must leave every
//! interval as it was.

use corpus::{Population, PopulationConfig, Scale};
use decompiler::passes::intervals;
use decompiler::{decompile, optimize, DefUse, PassConfig, Program};
use std::fmt::Write;

/// `(scale, seed)` → digests of the first 20 contracts, in order.
const GOLDEN: [(Scale, u64, [&str; 20]); 2] = [
    (Scale::Small, 42, [
        "33fc192bef7de267af741d9c6bafc1cd82c2cd912560f5e7b1b47092159df4bc",
        "77f6c174f066090ef8ec84e3f3f66fa072459cbfff3494e5d4e2a962274e45dc",
        "a77ac7137b6c9a9fdb97534e81ab3d2eaf351150bd093788645b9f07b0328242",
        "3ef460ae4ee2085a5690c987a1635072393160e6c5ddc96989cea2ce017a9c51",
        "3aeb215a8e285c1f033091f54f955aa95c21dbb2e3dd3f8f23a77af11a77760f",
        "a70e68ca34bc3480ef99e0c59feccbcfb590312dfacbe771d54ddb18782778f5",
        "5c541bf585880e088cd784343e4ecdc41cec45f285877cbc777a25a34a045077",
        "a11876cc40d61437fffc82d3acf640a2a3a8e508caa035650741f55975489e8a",
        "6d378340de6f720ee791198d998e31d0a17ba06f34c7606b47bedd6509b101cb",
        "2789407a0a7bacce0928e6e45c57ed23d9ba34cc3385a11836c3568bc2cd5c07",
        "a839ae959baf7457fb0bf7cfd3d5bea25e7b690a0f541db7e0b852ed1f9abc5e",
        "7199abd3f5ae39935c409d6376342fce7e561b06e9e592228f93cc7931735522",
        "519ab9e5849e2d10f00daa917f7669552fab1b4e309156523b1130ad6d77e089",
        "15e144e211ee8ad91a532f9ef51e87c81d048b8888e6fe088a023010a79cca60",
        "136201dd8c7319c6328e6c58c8fc5cfd38222ce310101f200b79f706d17c0204",
        "e1b4bff8bd1dd816c835883cd4bc4bcc281b2a60d486436282caac0d450061f1",
        "6e9ae1b1e7ea28e2d63f66bc8e33d4db45f641d9e2bf0dccaaa8c9be3fd96de4",
        "e8d1f622ca683f017f31845f674764c39f148bb949f50c32baf70b5dfab8dad4",
        "fa60c0774fe3ee092269331c83a785e15e250930711df97d344207c3499e7ec6",
        "f85fc0fd63c356e10234239b516f2ad60ae49d13528e352496a3db3f038a9520",
    ]),
    (Scale::Realistic, 7, [
        "316b9a34a3a3a9feb189c4255fc530ac3b07d5fefb7388f499d849b0156f47a4",
        "68c0f870d1871afd8f76ad24dfc419dd87b4b863a064dd0f6be86158ade461f5",
        "2e9ca641c7291dcd12c578b486c5da1bea36e2101bbc2fc4d1b1a5ea50e49398",
        "e707b90d8a27311281444deb8101c7f35129b447fba533128f8eb88bf2865a0f",
        "eca041183e6b6eaf6daa19e64eb911bbe58c021ed22dfb9a8db29acea63007c2",
        "4d213eb219ba530670df2e32723fbd6c682915248705d9c46ce0965db8c35ed7",
        "d6eadf46eb07493790894cba6e5990e620c0ac00341fa178f773cf827149e463",
        "4250b40e6f69357acb361a6d10b5adb3f98e8ce40529260e2860d32d8908e29d",
        "1cce359eecf558230420db1350b1980b45ccec7086bbfb621f13364eb5e126da",
        "01524ff2a12ea518268989296d92a5079720260157e89bb780cff9e8268222b7",
        "8843dcb80b0dee1551619a3d99b0970c0130e963dc37343ac41073ed88cc9d05",
        "a3ed06cfb11ff547be04549253df46ed6de0fd2235ddd41285b306d8fb85421b",
        "555eb91849f6295f9a942d899ca0f88583858189d871820308b9d88561e94b43",
        "1b330ef247dda74c2357e8ce2eedb75e418ab4a55eee2ee5d52611a575ffaa8c",
        "2b2d6cdaf1d8b08c256dfc7168672e3858978ef82344e7d125e4404e5def6a67",
        "39a5891239bb8baf2b06269d70a3073200bde7ab61a452f4947d2fb11d056231",
        "5c45f1952728d17bb63e18089329ede95c54d19728d5e6e47cbc02d673716c31",
        "500995d7e908ed0d56084c6cf4f4b837f2c7f6e54829e88e7ca5d79d6db3bc9f",
        "2acd7fbdba84c2eeae7e25a077851ce752b0eaf70e8621a29b384e536ce362ae",
        "951f560240e34330dccf4fd6387cd40f83f6cb4788c16147dd6590831d553be1",
    ]),
];

/// `(scale, seed)` → one digest of the interval analysis of the same
/// 20 optimized programs as [`GOLDEN`].
const GOLDEN_INTERVALS: [(Scale, u64, &str); 2] = [
    (Scale::Small, 42, "158dde6b0d570b8a6f0b0af2c1e8f4ca2cde94d48ef609146a2bafc4d20b9a8e"),
    (Scale::Realistic, 7, "a6a6ac193cae81c043dedbf20213262796552f39376bf4a7433b6734c668acb5"),
];

fn hex_digest(text: &str) -> String {
    evm::keccak256(text.as_bytes()).iter().map(|b| format!("{b:02x}")).collect()
}

/// The first 20 contracts of a population, decompiled and optimized.
fn optimized_programs(scale: Scale, seed: u64) -> Vec<Program> {
    let pop = Population::generate(&PopulationConfig { size: 20, seed, scale, ..Default::default() });
    pop.contracts
        .iter()
        .map(|c| {
            let mut p = decompile(&c.bytecode);
            optimize(&mut p, &PassConfig::default());
            p
        })
        .collect()
}

#[test]
fn optimized_ir_matches_golden_digests() {
    for (scale, seed, want) in GOLDEN {
        let got: Vec<String> =
            optimized_programs(scale, seed).iter().map(|p| hex_digest(&p.to_string())).collect();
        assert_eq!(got, want, "{scale:?} seed {seed}: optimized IR drifted from the golden table");
    }
}

#[test]
fn intervals_match_golden_digests() {
    for (scale, seed, want) in GOLDEN_INTERVALS {
        let mut text = String::new();
        for (i, p) in optimized_programs(scale, seed).iter().enumerate() {
            let iv = intervals::analyze(p, &DefUse::build(p));
            writeln!(text, "contract {i}").unwrap();
            for (v, env) in iv.vars.iter().enumerate() {
                match env {
                    Some(e) => writeln!(text, "v{v} {:x} {:x}", e.lo, e.hi).unwrap(),
                    None => writeln!(text, "v{v} -").unwrap(),
                }
            }
            for (b, succ) in &iv.dead_edges {
                writeln!(text, "dead {} {succ}", b.0).unwrap();
            }
        }
        let got = hex_digest(&text);
        assert_eq!(got, want, "{scale:?} seed {seed}: intervals drifted from the golden digest");
    }
}
