"""demod: a proof kernel for first-order deduction modulo.

Terms and propositions rewrite under declared rule systems; natural
deduction and the schematic (Hilbert-type) system check proofs modulo the
induced congruence; builders provide the arithmetic encodings and the
translators move proofs between the presentations while tracking length.
"""

from .syntax import (
    Signature,
    Sort,
    Term,
    Var,
    App,
    Atom,
    Proposition,
    alpha_equal,
    apply_substitution,
    free_variables,
    freely_substitutable,
    replace_at,
    subterm_at,
)
from .rewriting import (
    Rule,
    RewriteSystem,
    Trace,
    check_left_linear,
    congruent_auto,
    critical_pairs,
    joinable,
    longest_derivation,
    match,
    normalize,
    rewrite_redexes,
    verify_trace,
)
from .nd import Proof, Verdict, check_nd, nd_length, witness_all
from .hilbert import (
    Catalogue,
    HilbertProof,
    SchemaInstance,
    Template,
    check_hilbert,
    hilbert_length,
    instance,
    zi_axiom_schemata,
)
from .theories import (
    OrderConfig,
    Presentation,
    add_system,
    build_classes_extension,
    build_HHA,
    build_HO,
    build_WS,
    build_zi_signature,
    encode_prop,
    encode_term,
    fz_axioms,
    hha_extra_axioms,
    ho_compatible_axioms,
    ws_axioms,
)
from .translate import (
    CompatibilityCertificate,
    eliminate_axioms,
    hilbert_to_nd,
    nd_to_hilbert,
    verify_certificate,
    zi_hilbert_to_fz_modulo,
    zi_nd_to_hha,
)

__version__ = "0.1.0"
