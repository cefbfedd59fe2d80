"""Canonical variable and constraint names shared by builders, oracle and validator.

Every optimization variable is identified by a role prefix followed by its
index tuple.  Identifiers stay inside the character set accepted by LP and
MPS readers, so emitted files can be fed to external solvers unchanged.
"""
from __future__ import annotations


def arc_token(arc: tuple[str, str]) -> str:
    return "a{%s,%s}" % arc


def node_token(node: str) -> str:
    return "n{%s}" % node


def edge_token(edge: tuple[str, str]) -> str:
    return "e{%s,%s}" % edge


def flow_token(ri: int, arc: tuple[str, str], v: str, vp: str, w: str, wp: str) -> str:
    """Index of a routed flow: request, arc, data endpoints, lightpath hop."""
    return f"r{ri}_{arc_token(arc)}_{v}_{vp}_{w}_{wp}"


def lam_name(ri: int, arc: tuple[str, str], v: str, vp: str, w: str, wp: str) -> str:
    return "lam_" + flow_token(ri, arc, v, vp, w, wp)


def z_name(ri: int, arc: tuple[str, str], v: str, vp: str, w: str, wp: str) -> str:
    return "z_" + flow_token(ri, arc, v, vp, w, wp)


def y_name(ri: int, node: str, v: str) -> str:
    return f"y_r{ri}_{node_token(node)}_{v}"


def mu_name(ri: int, node: str, v: str) -> str:
    return f"mu_r{ri}_{node_token(node)}_{v}"


def theta_name(ri: int, node: str, v: str) -> str:
    return f"theta_r{ri}_{node_token(node)}_{v}"


def eta_name(w: str, wp: str) -> str:
    return f"eta_{w}_{wp}"


def l_name(w: str, wp: str, edge: tuple[str, str], g: int) -> str:
    return f"l_{w}_{wp}_{edge_token(edge)}_g{g}"


def l_wa_name(w: str, wp: str, g: int) -> str:
    return f"l_{w}_{wp}_g{g}"


def x_name(part: int, ri: int | None = None) -> str:
    # x1..x3 are per request, x4 is global.
    if part == 4:
        return "x4"
    if ri is None:
        raise ValueError("x1..x3 need a request index")
    return f"x{part}_r{ri}"


def xi_proc_name(ri: int, node: str, v: str, k: int) -> str:
    return f"xi_r{ri}_{node_token(node)}_{v}_k{k}"


def xi_fwd_name(ri: int, arc: tuple[str, str], v: str, vp: str, w: str, wp: str, k: int) -> str:
    return f"xi_{flow_token(ri, arc, v, vp, w, wp)}_k{k}"
