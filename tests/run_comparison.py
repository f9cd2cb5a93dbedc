"""Per-level error ratios of a multilevel run against coupled reference
solves on the same meshes, for the accuracy tests and acceptance criteria
3-7."""

from nsdarcy.mms import error_norms


class MeshMismatch(Exception):
    pass


def compare_runs(run, reference: list, mms, quad_degree: int = 8) -> list:
    """Per-level error ratios (multilevel final / coupled reference) for each
    reported variable and norm; reference states must sit on the same meshes
    in schedule order."""
    if len(reference) != len(run):
        raise MeshMismatch(f"{len(run)} levels vs "
                           f"{len(reference)} reference states")
    out = []
    for lv, ref in zip(run, reference):
        ref_n = ref.velocity.dofmap.mesh.n
        if ref_n != lv.n:
            raise MeshMismatch(f"level {lv.level}: n={lv.n} vs "
                               f"reference n={ref_n}")
        if ref.velocity.dofmap.family.tag != lv.final.velocity.dofmap.family.tag:
            raise MeshMismatch(f"level {lv.level}: element families differ")
        e_run = error_norms([lv.final], mms, quad_degree)[0]
        e_ref = error_norms([ref], mms, quad_degree)[0]
        out.append({k: e_run.errors[k] / e_ref.errors[k]
                    for k in e_run.errors})
    return out
