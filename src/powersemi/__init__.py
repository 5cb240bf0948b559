"""Workbench for power semigroups of finite (and selected infinite)
semigroups: setwise products on bit-mask subsets, cancellativity
classification by brute force and by the singleton rule, isomorphism
lifting and restriction, and exhaustive small-order catalog probes."""

from .cancellation import (CASE1, CASE2, CancellationWitness,
                           cancellative_elements_bruteforce,
                           singleton_cancellative_elements, verify_witness,
                           witness_noncancellative)
from .catalog import (CatalogEntry, associative_tables, canonical_tables,
                      enumerate_semigroups, global_iso_probe,
                      singleton_characterization_check)
from .errors import (AmbientMismatch, IndexOutOfRange, NonAssociative,
                     NonMemberInput, NotCompatible, OrderCapExceeded,
                     OrderUnsupported, PreconditionViolated, TheoremViolation,
                     WorkbenchError)
from .freewords import (cancellativity_campaign, leading_letter_disjoint,
                        letters_cancellation_consistent, word_product)
from .morphisms import (Morphism, all_isomorphisms,
                        cancellative_preservation_check, find_isomorphism,
                        lift_isomorphism, restrict_isomorphism,
                        verify_commutativity_transfer)
from .numerical import (NumericalMonoid, equality_campaign, random_member_set,
                        random_monoid, witness_campaign)
from .power import (FAMILY_MAX, POWER_CAP_MAX, CompletenessCertificate,
                    SubsetElement, SubsetFamily, bits, build_power_semigroup,
                    build_power_semigroups, congruence_family,
                    downward_complete_closure, downward_completeness,
                    family_products, family_report, full_family, mask_of,
                    power_fingerprints, setwise_product, singleton_family,
                    submasks)
from .semigroups import (MAX_ORDER, Congruence, FiniteSemigroup,
                         IsoFingerprint, all_congruences,
                         congruence_from_partition,
                         describe_fingerprint_mismatch, fingerprint,
                         fingerprints, format_table, parse_table, read_table)

__version__ = "0.1.0"
