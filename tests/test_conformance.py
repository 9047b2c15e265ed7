"""The committed sample files parse, check and round-trip byte-identically."""

from pathlib import Path

from demod import fileformat as ff
from demod.cli import main
from demod.hilbert import check_hilbert, zi_axiom_schemata
from demod.nd import check_nd
from demod.theories import OrderConfig

DATA = Path(__file__).parent / "data"


def _reprint(path: Path) -> str:
    return ff.dumps(ff.loads(path.read_text()))


def test_samples_reprint_identically():
    for path in sorted(DATA.iterdir()):
        assert _reprint(path) == path.read_text(), path.name


def test_sample_system_and_proof_check():
    sig = ff.signature_from_sx(ff.loads((DATA / "add.rules.sig").read_text()))
    system = ff.system_from_sx(ff.loads((DATA / "add.rules").read_text()), sig)
    proof = ff.nd_proof_from_document(ff.loads((DATA / "add-modulo-proof.sexp").read_text()), sig)
    verdict = check_nd(proof, system=system)
    assert verdict.ok and verdict.length == 1
    axioms = ff.presentation_from_sx(ff.loads((DATA / "add-axioms.sexp").read_text()), sig)
    assert len(axioms.axioms) == 2


def test_sample_hilbert_checks():
    from demod.theories import classes_signature

    sig = classes_signature(1)
    proof = ff.hilbert_from_sx(ff.loads((DATA / "three-line.hilbert.sexp").read_text()), sig)
    assert check_hilbert(proof, zi_axiom_schemata(OrderConfig(1))).ok


def test_cli_with_file_system(capsys):
    code = main(
        [
            "check-nd",
            str(DATA / "add-modulo-proof.sexp"),
            "--system",
            str(DATA / "add.rules"),
        ]
    )
    assert code == 0


def _pinned_documents():
    """Name and document of every builtin signature, system and presentation,
    the axiomatic Add proofs, the FZ and HHA fragments with their witnessed
    copies, a seeded Hilbert corpus and one schema instance."""
    from demod import fragments
    from demod.bench import gen_add_axiomatic_proof, random_hilbert_corpus
    from demod.hilbert import Template, instance
    from demod.nd import witness_all
    from demod.theories import (
        ZERO, add_compatible_axioms, add_signature, add_system, base_signature, build_HHA, build_HO,
        build_WS, build_zi_signature, classes_signature, comp_sk, eq, fz_axioms, hha_extra_axioms,
        hha_signature, ho_compatible_axioms, s_, var0, ws_axioms,
    )

    orders = (OrderConfig(1), OrderConfig(2))
    signatures = [("add", add_signature()), ("base-1", base_signature(1)), ("zi-2", build_zi_signature(orders[1]))]
    signatures += [(f"classes-{i}", classes_signature(i)) for i in (1, 2)]
    signatures += [("classes-1-extras", classes_signature(1, True))]
    signatures += [(f"hha-{cfg.i}", hha_signature(cfg)) for cfg in orders]
    for name, sig in signatures:
        yield f"signature {name}", ff.signature_to_sx(sig)
    systems = [("add", add_system())]
    for cfg in orders:
        hha = build_HHA(cfg)
        systems += [(f"ws-{cfg.i}", build_WS(cfg)), (f"ho-{cfg.i}", build_HO(cfg)), (f"hha-{cfg.i}", hha),
                    (f"hha-noind-{cfg.i}", hha.auto_fallback)]
    for name, system in systems:
        yield f"system {name}", ff.system_to_sx(system)
    presentations = [("add", add_compatible_axioms()), ("fz", fz_axioms()), ("hha-extra", hha_extra_axioms())]
    for cfg in orders + (OrderConfig(3),):
        presentations += [(f"ws-{cfg.i}", ws_axioms(cfg)), (f"comp-sk-{cfg.i}", comp_sk(cfg)),
                          (f"ho-{cfg.i}", ho_compatible_axioms(cfg))]
    for name, pres in presentations:
        yield f"axioms {name}", ff.presentation_to_sx(pres)
    for n in range(1, 7):
        yield f"add-axiomatic {n}", ff.nd_proof_document(gen_add_axiomatic_proof(n))
    hha = build_HHA(orders[0])
    frags = [("fz", name, fragments.fz_fragment(name)) for name in fragments.FZ_LIBRARY]
    frags += [("hha", name, fragments.hha_fragment(name)) for name in fragments.HHA_LIBRARY]
    for family, name, frag in frags:
        yield f"{family} {name}", ff.nd_proof_document(frag.proof)
        yield f"{family} {name} witnessed", ff.nd_proof_document(witness_all(frag.proof, hha))
    for k, proof in enumerate(random_hilbert_corpus(8, 2024)):
        yield f"hilbert {k}", ff.hilbert_to_sx(proof)
    h = var0("h")
    yield "schema UI^0", ff.instance_to_sx(instance(
        "UI^0", templates=[("A", Template((h,), eq(h, ZERO)))], terms=[("tau", s_(ZERO))],
        metavars=[("alpha", var0("w"))]))


def _digests() -> dict[str, str]:
    import hashlib

    return {name: hashlib.sha256(ff.dumps(doc).encode()).hexdigest() for name, doc in _pinned_documents()}


# SHA-256 of each pinned document's printed text, recorded before the file
# format's readers and writers became one table; the table writes the same bytes
PINNED_DIGESTS = {
    "signature add": "f84c5cf8048e7dc7713776af28d37626975e9abb1ff558b64acee8dc74131ba3",
    "signature base-1": "657910e4e21a0cc5c705929a99c852b014dfdd8c77499522abab869810599f14",
    "signature zi-2": "657910e4e21a0cc5c705929a99c852b014dfdd8c77499522abab869810599f14",
    "signature classes-1": "23ce08aec020c4b2b89eb8ff71d864811e2cff1ce9eb03b89f127c193b89039a",
    "signature classes-2": "15bbda4a24a036119cafb5d80d0624553cb5ee9cc3702fa65cc3e3b0a32934ba",
    "signature classes-1-extras": "a4419a1e9a4d3c93fa65ffa3649c7434d3143650ff1cd981de88be64c5bdd5a0",
    "signature hha-1": "a4419a1e9a4d3c93fa65ffa3649c7434d3143650ff1cd981de88be64c5bdd5a0",
    "signature hha-2": "d2f9e2448254979231ad85a837a3a6c82f28ed1177cacd45b03c32670d0cbcbb",
    "system add": "f29918fe28297da8139de32356d34d3e56237e7a03c9880ad3a9ddc32c457b0c",
    "system ws-1": "718dd9b1054c9e7578f2666ad5958d29a9a894054cfb43df8e6caf6b4379334f",
    "system ho-1": "322c4621da455639ba8e8ee4d209aaa6660a9c577573af9566b672b4b9a1b2c0",
    "system hha-1": "84bc965ca04717f2b649d16aced02462781ca43c1556609c2283fe4dfc3757d7",
    "system hha-noind-1": "064e174c256a8b1e5863186a2daf1d2be12c78b3b2cede446a50dbed58727ec9",
    "system ws-2": "34c8f7ef4918dc9bb4ac917694a37d2f30d92d4c769b1e2bcfb58d9348bc0e5b",
    "system ho-2": "4a36eaa57313e53973c9b3d1633f21a56ca281304e72c5a2fbd1cb2acc7ffb34",
    "system hha-2": "4bd7dc62d118e656f71fc69bb62ae7c78e0d1681a2f9b116c8f2636001c30f2d",
    "system hha-noind-2": "af8312f9f91d9660b0adbaa0d54c42a5810862397e87be9a3aa2ec6dac871ed0",
    "axioms add": "0cf4d9e76eb93bd8938ee8dd336d963e3ae2ea51046e2ef0a53938512bb21df5",
    "axioms fz": "219b187345f30ec57de4d5334deb9b3109d628863ec0b1bafe61df0420b7a1bc",
    "axioms hha-extra": "ca73b67e29df364b011b33a414fcfa9c8b737a089405b040bb00e326a3d34bf6",
    "axioms ws-1": "54532452059b25d19a4f62e4d84364acd5fa644ec94f4f43ea59824f20eed9b7",
    "axioms comp-sk-1": "5806d0242a6fc0e4bd045a80f9f4c7ea4d3049078f92ba9a064ff73e8c27f849",
    "axioms ho-1": "86a2ba4f014625883f4487f60470e15d5ae6538e6275e85c8157d8bd027acc02",
    "axioms ws-2": "807bc917ef4cc0fdcf050628d5d840274940b292dcbce06c9652438f441af8b3",
    "axioms comp-sk-2": "0e6919b7b8e44e35c2bf3b613b48ebe088a3cc0d8c0ed6b43bf39e3cf03c07f6",
    "axioms ho-2": "5ed25ed94cf46157fdd896946367bcec8423a867f422eef57d342194b3e7ab1b",
    "axioms ws-3": "b2f4c84129efd880448d61e9df829e5b876a035a8b0d7b1d9c34ff7bd026d1ba",
    "axioms comp-sk-3": "fad0516ce53d25caf572288eb09baac9cd502c32f02d8a7db761fce90f363e46",
    "axioms ho-3": "6ea66976c441d3c06df3ec77c0b778f41175d1954a92df4e6d7fad63c5812d13",
    "add-axiomatic 1": "fd5d645a22fe76cc76ad731c0ecc0200488826e408d030f1f85dee25b7a65cfb",
    "add-axiomatic 2": "1601c416ca5056c75ef66904a14a317979bc8338e009f791e70c7ef4ebcdf1b0",
    "add-axiomatic 3": "dc123bc344b48279477ebd945f44996b9b35fba1cd00e9511f39374e0b1ce170",
    "add-axiomatic 4": "6e4e1576d4ee0c9f44f36a5b5e710513d0ab11d6864e8b0f0aa517c0400d341e",
    "add-axiomatic 5": "9e20a879d97c85cd4b14023f9c1f511b14c5e772fc3d832bda8100de5c6f8e0b",
    "add-axiomatic 6": "f0f26eac478e470adbfd78bf65014ba935d7de0bba459e9b83916fb681d51405",
    "fz leibniz": "6d44dc79d561466b07428019a64caff133b7ec2c932498ecabc502a4469bfbb3",
    "fz leibniz witnessed": "44e085cd75f194057791572882fe9d63c53e50296afaec1b100c7219be1f5101",
    "fz ind": "5963be75024ed4a9052dd03fdae20d4f2b02d5ac49d7e2afe39a48aa441c8ad2",
    "fz ind witnessed": "562bcd23d4696f3aa6d13561cf032fc03f35c3f3d988c6b495dfbd9de4021647",
    "fz comp^0": "9922411ccb06b7749498c3c3a4d8484ca4f74a919f68a3688f5678452955d2a4",
    "fz comp^0 witnessed": "464238e95dfc28296434b8ca731b2b38e9345dd0b717ec28074752c3a877b2e9",
    "hha refl": "622798bee04f1caa4a395e3fe1b1804a30162062935dae7514f743b0169b9917",
    "hha refl witnessed": "f14bd519a5fde2fa9a0e11cd181a13bf2e52ab32c0dcdbb3b53b32f5afd673cf",
    "hha leibniz-ax": "b62c3cef87baedec5d0209614a9592bdd1057042d8069532ef5e0091a0f4f317",
    "hha leibniz-ax witnessed": "6eb56fb65dc609ca1f3a872a607c76c879ec08d5f6d39da0545f911f09370542",
    "hha zero-ne-s": "0d5407cbc48019119070a9db7bce01b566a373f6a7856647070b2a2c02406be2",
    "hha zero-ne-s witnessed": "ebaf3d66330177766ba845791de54c98a7460f839866d4261112e47ebc4d4353",
    "hha inj-s": "570ab5dbdad8884db4692fd31fbc721e552181b1d6aa59b4e17ecd4211163f3c",
    "hha inj-s witnessed": "78ef90183c205541174d1c46bad02cc8fc5c56c51f808ec2b41444d648f03fed",
    "hha onto-s": "b15f2b7f35c80de2b061396e654b1498c499d6b94bb880d7de120c2e012b237c",
    "hha onto-s witnessed": "39371e9ce3b46973541c640362b50bc94be984088021008d90a2342d18931a4a",
    "hha plus-zero": "aaaa644226ed78ca803e79dbce2de597ead4b20827a4ed137d12cfcee494f291",
    "hha plus-zero witnessed": "9697033f011a607811c61b2a27f5992865430b8471aa0d81b1b6be3bb898ff85",
    "hha plus-s": "2b4c98441505c0285bc392d39bda48f73aaf59a2dc6caf7b42cad55d033445fa",
    "hha plus-s witnessed": "4cd516a69ea50cfd3e112c5edd942996dc7b8e4e592b39271a5a2a22b31fb5fb",
    "hha times-zero": "2465d6a37114c55f463b26d0eb2caf0b082d1ceadadb1d69cb212d3bcd449dad",
    "hha times-zero witnessed": "cf4e6c3bc580c57ef70d92b272aed7fbfbf78b417ab096e50296d09ffdc900c7",
    "hha times-s": "1ae929f4219c507451f7bef575037822c98344e600fa55b42b2f684a03763feb",
    "hha times-s witnessed": "98df606b36ffaeff81659794bef0ee52fb9f814bc8bdc3205c40d288d99c8875",
    "hha leibniz": "6ff10684affae06edf163227683692693616ad31bcb453ce03d98d08ee8cfca0",
    "hha leibniz witnessed": "7758106e56aac5e35ad33d15d830371c30cebf5b517d4e6d10f1f9ae3f3cf165",
    "hha ind": "d3965d1450092f534b621dca8d0a6ea9dd790e0f7f2550d61f5df5039f75b049",
    "hha ind witnessed": "b74082ee25fb9ac8057b740e38e5327f58090222644ffd99670f10cfdbabf36d",
    "hha comp^0": "a3455f7e20ce517ef7c417925608b9c9f756e4b95cac8248053e7650c40cbf28",
    "hha comp^0 witnessed": "3ef827c1ecdebc622db5c23f1b7c974bc89963c1198b5cc81dc114f5da24627c",
    "hilbert 0": "dcc0dc4ea576f1c7699294024b0f404abe4c267e75a414fb61931ec146a5d68a",
    "hilbert 1": "b117d530029de04c6765eca786acc5116815b230ba9c30fc6aeb4c720cf813b5",
    "hilbert 2": "5465aae3975fb7656ad0c370f4cd8da45d98de5956210ea2ae4aaa57df6e5276",
    "hilbert 3": "ec15ccc0dbe53f0a9a6ff347cb029ab709aa2178bb7b1de92c97a27edb08ed9f",
    "hilbert 4": "4f11b5d6bbb89b285a6a558201b4449cc15f2dbfd0f24fdba1abf092af70a3fa",
    "hilbert 5": "850b6a2c66d0f6b9019ee6c200c5e8b2d52199ea84ec42ea43915c768e601ecc",
    "hilbert 6": "8f6687e0b4811e15c241a6fa146a5a7b520f59f4afad4a8108b2bb1aa87b7dbf",
    "hilbert 7": "addf083ea3c09864b46be03b7c6d4ef2d7cb5da61fd145a6c487ba1984d94188",
    "schema UI^0": "52e31280d3778608eb06e8e3a949afb4086c76d609ddafcecb78af41772c1e61",
}


def test_pinned_documents_print_byte_identically():
    assert _digests() == PINNED_DIGESTS
